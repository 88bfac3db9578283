package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// sample is one timed operation. In an open loop, due is when the
// schedule said the request should go out; in a closed loop it is when
// the connection sent it. Timing from due charges a stall to every
// request that was due during it, not just to the one that hit it.
type sample struct {
	due   time.Time // scheduled send time
	wake  time.Time // when the scheduler released the request
	start time.Time // when a connection picked it up
	end   time.Time // when the last reply byte was read
	err   error
}

func (s sample) latency() time.Duration   { return s.end.Sub(s.due) }
func (s sample) late() time.Duration      { return s.wake.Sub(s.due) }
func (s sample) queueWait() time.Duration { return s.start.Sub(s.wake) }

// op performs one request on c, reads the reply to its last byte and
// checks it.
type op func(ctx context.Context, c *http.Client) error

// newClient returns a client that holds at most one connection, so the
// number of clients a loop gets is the number of connections it opens.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// openLoop sends ops[i] when it falls due at start + i·interval, on
// whichever client is free first; a request due while every client is
// busy waits for one, and that wait counts toward its latency. It returns
// one sample per op sent before ctx ended.
func openLoop(ctx context.Context, clients []*http.Client, start time.Time, interval time.Duration, ops []op) []sample {
	samples := make([]sample, len(ops))
	// Sized to the number of sends, so the scheduler never blocks on a
	// busy pool and its lateness measures only its own timer.
	jobs := make(chan int, len(ops))
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range jobs {
				s := &samples[i]
				s.start = time.Now()
				s.err = ops[i](ctx, c)
				s.end = time.Now()
			}
		}(c)
	}
	sent := 0
	timer := time.NewTimer(0)
	<-timer.C
schedule:
	for i := range ops {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break schedule
			}
		}
		samples[i].due = due
		samples[i].wake = time.Now()
		jobs <- i
		sent++
	}
	timer.Stop()
	close(jobs)
	wg.Wait()
	return samples[:sent]
}

// closedLoop runs one sender per client until deadline; each sends its
// next request as soon as the previous reply has been read. next(w, k)
// returns sender w's k-th op.
func closedLoop(ctx context.Context, clients []*http.Client, deadline time.Time, next func(w, k int) op) []sample {
	per := make([][]sample, len(clients))
	var wg sync.WaitGroup
	for w, c := range clients {
		wg.Add(1)
		go func(w int, c *http.Client) {
			defer wg.Done()
			for k := 0; ctx.Err() == nil && time.Now().Before(deadline); k++ {
				o := next(w, k)
				now := time.Now()
				s := sample{due: now, wake: now, start: now}
				s.err = o(ctx, c)
				s.end = time.Now()
				per[w] = append(per[w], s)
			}
		}(w, c)
	}
	wg.Wait()
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out
}

// post sends body to url and returns the reply body; any status but 200
// is an error.
func post(ctx context.Context, c *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return do(c, req)
}

func get(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return do(c, req)
}

func do(c *http.Client, req *http.Request) ([]byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading reply: %w", req.Method, req.URL.Path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return body, fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// latencies returns the samples' latencies in milliseconds, successful
// ones only: a failed request has no latency to report, it counts as a
// failure instead.
func latencies(ss []sample) []float64 {
	var out []float64
	for _, s := range ss {
		if s.err == nil {
			out = append(out, ms(s.latency()))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
