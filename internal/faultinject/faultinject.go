// Package faultinject provides deterministic failpoints for robustness
// testing. A failpoint is a named site planted in production code with
// Hit; tests (or an operator, via the HDIV_FAILPOINTS environment
// variable) arm a site with an action — return an error, panic, or
// delay — and optionally restrict it to the Nth execution of the site.
// The integration suites drive these failpoints against the live daemon
// to prove that panics are contained, budgets degrade gracefully and
// cache errors release their waiters.
//
// Failpoints are compiled in unconditionally but cost one atomic load
// when nothing is armed, so planting a site in a hot path is safe. All
// functions are safe for concurrent use.
//
// The spec grammar is
//
//	action[(arg)][@N]
//
// where action is one of
//
//	error          return a generic injected error
//	error(msg)     return an error with the given message
//	panic          panic with a site-tagged message
//	panic(msg)     panic with the given message
//	delay(dur)     sleep for the time.ParseDuration duration, then proceed
//
// and the optional @N suffix (N ≥ 1) fires the action only on the Nth
// hit of the site, counting from arming; earlier and later hits pass
// through. Without @N the action fires on every hit. Examples:
//
//	Arm("server.cache_fill", "error(disk gone)")
//	Arm("fpm.candidate_batch", "panic@2")
//	HDIV_FAILPOINTS="dataset.read_csv=delay(50ms),fpm.candidate_batch=error"
package faultinject

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EnvVar is the environment variable ArmFromEnv reads: a comma-separated
// list of site=spec pairs.
const EnvVar = "HDIV_FAILPOINTS"

// action is what an armed failpoint does when it fires.
type action int

const (
	actError action = iota
	actPanic
	actDelay
)

// failpoint is one armed site.
type failpoint struct {
	act   action
	msg   string        // error/panic message ("" = default)
	delay time.Duration // actDelay sleep
	onNth int64         // fire only on this hit count (0 = every hit)
	hits  atomic.Int64  // hits observed since arming
}

// Error is the error returned by a fired error-action failpoint. Checking
// for it with errors.As lets tests distinguish injected failures from
// organic ones.
type Error struct {
	// Site is the failpoint site that fired.
	Site string
	// Msg is the configured message ("" for the default).
	Msg string
}

// Error renders the injected error with its site.
func (e *Error) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("faultinject: %s: %s", e.Site, e.Msg)
	}
	return fmt.Sprintf("faultinject: injected error at %s", e.Site)
}

var (
	// armed counts armed sites; Hit fast-paths out while it is zero, so a
	// disarmed failpoint costs a single atomic load.
	armed  atomic.Int64
	mu     sync.Mutex
	points = map[string]*failpoint{}
)

// Hit executes the failpoint at site: it returns an injected error,
// panics, or sleeps if the site is armed with a matching action (and, for
// @N specs, this is the Nth hit); otherwise it returns nil. Disarmed
// sites — the production state — cost one atomic load.
func Hit(site string) error {
	if armed.Load() == 0 {
		return nil
	}
	return hitSlow(site)
}

func hitSlow(site string) error {
	mu.Lock()
	fp := points[site]
	mu.Unlock()
	if fp == nil {
		return nil
	}
	n := fp.hits.Add(1)
	if fp.onNth != 0 && n != fp.onNth {
		return nil
	}
	switch fp.act {
	case actPanic:
		msg := fp.msg
		if msg == "" {
			msg = fmt.Sprintf("faultinject: injected panic at %s", site)
		}
		panic(msg)
	case actDelay:
		time.Sleep(fp.delay)
		return nil
	default:
		return &Error{Site: site, Msg: fp.msg}
	}
}

// Arm configures the failpoint at site with the given spec (see the
// package comment for the grammar), replacing any previous arming of the
// site and resetting its hit count.
func Arm(site, spec string) error {
	if site == "" {
		return fmt.Errorf("faultinject: empty site")
	}
	fp, err := parseSpec(spec)
	if err != nil {
		return fmt.Errorf("faultinject: site %s: %w", site, err)
	}
	mu.Lock()
	if _, exists := points[site]; !exists {
		armed.Add(1)
	}
	points[site] = fp
	mu.Unlock()
	return nil
}

// Disarm removes the failpoint at site; a no-op if the site is not armed.
func Disarm(site string) {
	mu.Lock()
	if _, exists := points[site]; exists {
		delete(points, site)
		armed.Add(-1)
	}
	mu.Unlock()
}

// Reset disarms every failpoint, restoring the zero-cost production
// state. Tests call it in cleanup so armings never leak across tests.
func Reset() {
	mu.Lock()
	armed.Add(-int64(len(points)))
	points = map[string]*failpoint{}
	mu.Unlock()
}

// Armed reports whether the site is currently armed.
func Armed(site string) bool {
	mu.Lock()
	defer mu.Unlock()
	_, ok := points[site]
	return ok
}

// ArmFromEnv arms every site=spec pair in the HDIV_FAILPOINTS environment
// variable (comma-separated). An empty or unset variable is a no-op. The
// binaries call this at startup so operators can inject faults without
// recompiling.
func ArmFromEnv() error {
	return armList(os.Getenv(EnvVar))
}

// armList arms a comma-separated site=spec list (the EnvVar payload).
func armList(list string) error {
	if strings.TrimSpace(list) == "" {
		return nil
	}
	for _, pair := range strings.Split(list, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		site, spec, ok := strings.Cut(pair, "=")
		if !ok {
			return fmt.Errorf("faultinject: %s entry %q: want site=spec", EnvVar, pair)
		}
		if err := Arm(strings.TrimSpace(site), strings.TrimSpace(spec)); err != nil {
			return err
		}
	}
	return nil
}

// parseSpec parses action[(arg)][@N].
func parseSpec(spec string) (*failpoint, error) {
	spec = strings.TrimSpace(spec)
	fp := &failpoint{}
	if at := strings.LastIndex(spec, "@"); at >= 0 {
		n, err := strconv.ParseInt(spec[at+1:], 10, 64)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad @N suffix in %q (want a positive integer)", spec)
		}
		fp.onNth = n
		spec = spec[:at]
	}
	name, arg := spec, ""
	if open := strings.Index(spec, "("); open >= 0 {
		if !strings.HasSuffix(spec, ")") {
			return nil, fmt.Errorf("unbalanced parentheses in %q", spec)
		}
		name = spec[:open]
		arg = spec[open+1 : len(spec)-1]
	}
	switch name {
	case "error":
		fp.act = actError
		fp.msg = arg
	case "panic":
		fp.act = actPanic
		fp.msg = arg
	case "delay":
		fp.act = actDelay
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("delay wants a non-negative duration, got %q", arg)
		}
		fp.delay = d
	default:
		return nil, fmt.Errorf("unknown action %q (want error, panic or delay)", name)
	}
	return fp, nil
}
