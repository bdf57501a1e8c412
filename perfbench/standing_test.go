package main

import (
	"math/rand"
	"net/http"
	"slices"
	"testing"
)

func polls(applied ...int) []poll {
	ps := make([]poll, len(applied))
	for i, a := range applied {
		ps[i].Applied = a
	}
	return ps
}

func TestFirstPublished(t *testing.T) {
	ps := polls(5, 5, 6, 8, 8, 9, 12)
	// Event i is applied event base+i+1: with base 5, event 0 needs
	// applied >= 6 and event 6 needs applied >= 12.
	got := firstPublished(5, 8, ps)
	want := []int{2, 3, 3, 5, 6, 6, 6, -1}
	if !slices.Equal(got, want) {
		t.Errorf("firstPublished = %v, want %v", got, want)
	}
}

func TestPublishTimesSkipsRefused(t *testing.T) {
	sends := []sent{{status: http.StatusAccepted}, {status: http.StatusTooManyRequests}, {status: http.StatusAccepted}}
	// The refused event is never applied, so the third event is applied
	// event number base+2.
	got := publishTimes(sends, 10, polls(10, 11, 12))
	want := []int{1, -1, 2}
	if !slices.Equal(got, want) {
		t.Errorf("publishTimes = %v, want %v", got, want)
	}
}

func TestSessionStreamStaysInBand(t *testing.T) {
	events := sessionStream(rand.New(rand.NewSource(1)), 50, 40, 2, 2000)
	online := map[int]int{} // handle -> pool index
	for h := 0; h < 40; h++ {
		online[h] = h
	}
	next := 40
	for i, e := range events {
		if e.arrive {
			if e.handle != next {
				t.Fatalf("event %d: arrival handle %d, want %d", i, e.handle, next)
			}
			for _, p := range online {
				if p == e.pool {
					t.Fatalf("event %d: pool member %d arrives while online", i, e.pool)
				}
			}
			online[e.handle] = e.pool
			next++
		} else {
			if _, ok := online[e.handle]; !ok {
				t.Fatalf("event %d: departure of offline handle %d", i, e.handle)
			}
			delete(online, e.handle)
		}
		if n := len(online); n < 38 || n > 42 {
			t.Fatalf("event %d: %d online, want 40±2", i, n)
		}
	}
	if got := len(onlineAfter(40, events)); got != len(online) {
		t.Errorf("onlineAfter = %d users, want %d", got, len(online))
	}
}
