package main

import (
	"reflect"
	"testing"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/broker"
)

func TestOpenLoopScheduleIsSeeded(t *testing.T) {
	a := openLoopSchedule(11, 400, 2*time.Second, 1)
	b := openLoopSchedule(11, 400, 2*time.Second, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	c := openLoopSchedule(12, 400, 2*time.Second, 1)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n < 700 || n > 900 {
		t.Fatalf("%d arrivals in 2s at 400/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due || a[i].due >= 2*time.Second {
			t.Fatalf("due times out of order or past the phase at %d", i)
		}
	}
}

func TestRequestMix(t *testing.T) {
	items := openLoopSchedule(3, 2000, 5*time.Second, 2)
	policies := map[string]int{}
	valid := map[int]bool{}
	for _, p := range append(append([]int{}, miniMDProcs...), miniFEProcs...) {
		valid[2*p] = true
	}
	for _, it := range items {
		r := it.req
		policies[r.Policy]++
		if !valid[r.Procs] || r.PPN != paperPPN || r.Force {
			t.Fatalf("request outside the paper's shapes: %+v", r)
		}
		if _, err := (alloc.Request{Procs: r.Procs, PPN: r.PPN, Alpha: r.Alpha, Beta: r.Beta}).Validate(); err != nil {
			t.Fatalf("invalid request %+v: %v", r, err)
		}
	}
	for _, p := range policyMix {
		want := len(items) * p.weight / 10
		if got := policies[p.name]; got < want-p.weight*len(paperShapes()) || got > want+p.weight*len(paperShapes()) {
			t.Fatalf("policy %s drawn %d times of %d, want its share %d", p.name, got, len(items), want)
		}
	}
}

func TestCheckerRejectsBadGrants(t *testing.T) {
	chk := &checker{hosts: map[int]string{0: "a", 1: "b"}}
	req := broker.Request{Procs: 8, PPN: 4}
	good := broker.Response{Nodes: []int{0, 1}, Procs: map[int]int{0: 4, 1: 4}, Hostfile: []string{"a:4", "b:4"}}
	if bad := chk.grant(req, good); bad != "" {
		t.Fatalf("valid grant rejected: %s", bad)
	}
	for name, resp := range map[string]broker.Response{
		"dead node":     {Nodes: []int{0, 2}, Procs: map[int]int{0: 4, 2: 4}, Hostfile: []string{"a:4", "c:4"}},
		"short procs":   {Nodes: []int{0, 1}, Procs: map[int]int{0: 4, 1: 2}, Hostfile: []string{"a:4", "b:2"}},
		"bad hostfile":  {Nodes: []int{0, 1}, Procs: map[int]int{0: 4, 1: 4}, Hostfile: []string{"a:4", "a:4"}},
		"missing lines": {Nodes: []int{0, 1}, Procs: map[int]int{0: 4, 1: 4}, Hostfile: []string{"a:4"}},
	} {
		if chk.grant(req, resp) == "" {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestWallMapInterpolates(t *testing.T) {
	v0, w0 := epoch, time.Unix(1000, 0)
	var m wallMap
	m.mark(v0, w0)
	m.mark(v0.Add(10*time.Second), w0.Add(4*time.Millisecond))
	m.mark(v0.Add(20*time.Second), w0.Add(6*time.Millisecond))
	if got := m.at(v0.Add(5 * time.Second)); !got.Equal(w0.Add(2 * time.Millisecond)) {
		t.Fatalf("at +5s = %v", got.Sub(w0))
	}
	if got := m.at(v0.Add(15 * time.Second)); !got.Equal(w0.Add(5 * time.Millisecond)) {
		t.Fatalf("at +15s = %v", got.Sub(w0))
	}
	if got := m.at(v0.Add(time.Hour)); !got.Equal(w0.Add(6 * time.Millisecond)) {
		t.Fatalf("past the end = %v", got.Sub(w0))
	}
}
