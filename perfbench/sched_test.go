package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestArrivalOffsetsSeededAndAtRate(t *testing.T) {
	a := arrivalOffsets(rand.New(rand.NewSource(7)), 2000, 500)
	b := arrivalOffsets(rand.New(rand.NewSource(7)), 2000, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := arrivalOffsets(rand.New(rand.NewSource(8)), 2000, 500); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if a[0] != 0 {
		t.Errorf("first arrival due at %v, want 0", a[0])
	}
	gapMin, gapMax := time.Second/500/2, time.Second/500*3/2
	for i := 1; i < len(a); i++ {
		if g := a[i] - a[i-1]; g < gapMin || g > gapMax {
			t.Fatalf("gap %d = %v, outside [%v, %v]", i, g, gapMin, gapMax)
		}
	}
	// 1999 gaps at a mean of 2ms: within 3% of 4s.
	if span := a[len(a)-1]; span < 3880*time.Millisecond || span > 4120*time.Millisecond {
		t.Errorf("2000 arrivals at 500/s span %v, want about 4s", span)
	}
}

func TestPaceFiresInOrderNoEarlierThanDue(t *testing.T) {
	offsets := []time.Duration{0, 2 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond}
	start := time.Now().Add(time.Millisecond)
	var fired []int
	var at []time.Time
	late := pace(start, offsets, func(i int, due time.Time) {
		if want := start.Add(offsets[i]); !due.Equal(want) {
			t.Errorf("fire %d due %v, want %v", i, due, want)
		}
		fired = append(fired, i)
		at = append(at, time.Now())
	})
	if !reflect.DeepEqual(fired, []int{0, 1, 2, 3}) {
		t.Fatalf("fired %v, want in order", fired)
	}
	for i, ts := range at {
		if ts.Before(start.Add(offsets[i])) {
			t.Errorf("fire %d ran %v before its due time", i, start.Add(offsets[i]).Sub(ts))
		}
		if late[i] < 0 {
			t.Errorf("lateness %d = %v, want >= 0", i, late[i])
		}
	}
}

func TestPaceIsOpenLoop(t *testing.T) {
	// A fire that blocks for longer than the gap does not push the schedule
	// back: the next fire is reported late against its own due time.
	offsets := []time.Duration{0, time.Millisecond}
	late := pace(time.Now(), offsets, func(i int, _ time.Time) {
		if i == 0 {
			time.Sleep(20 * time.Millisecond)
		}
	})
	if late[1] < 15*time.Millisecond {
		t.Errorf("second arrival late by %v, want about 19ms", late[1])
	}
}
