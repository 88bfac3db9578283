package main

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{Name: "root", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(40), Parent: 0},
		{Name: "b", Start: ms(30), End: ms(60), Parent: 0},  // overlaps a
		{Name: "c", Start: ms(50), End: ms(55), Parent: 0},  // inside b
		{Name: "a1", Start: ms(15), End: ms(20), Parent: 1}, // nested in a
		{Name: "d", Start: ms(90), End: ms(120), Parent: 0}, // runs past root
		{Name: "e", Start: ms(70), End: ms(70), Parent: 0},  // empty
	}
	want := []time.Duration{
		ms(40), // 100 − [10,60] − [90,100]
		ms(25), // 30 − 5
		ms(30), // b's own children: none
		ms(5),
		ms(5),
		ms(30),
		0,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *recorder
	id := r.begin("x", -1, 1)
	r.end(id)
	if id != -1 || r.add("y", id, 1, time.Now(), time.Now()) != -1 {
		t.Fatal("a nil recorder handed out span ids")
	}
}

func TestChromeTraceValidates(t *testing.T) {
	origin := time.Now()
	a, b := newRecorder(origin), newRecorder(origin)
	for op := 1; op <= 3; op++ {
		root := a.begin("op", -1, op)
		child := a.begin("child", root, op)
		a.end(child)
		a.add("derived", root, op, time.Now(), time.Now().Add(time.Microsecond))
		a.end(root)
	}
	b.end(b.begin("probe", -1, 4))
	var buf bytes.Buffer
	if err := writeChrome(&buf, []string{"replay", "probes"}, a, b); err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 + 3*3 + 1; n != want {
		t.Errorf("validated %d events, want %d", n, want)
	}
}
