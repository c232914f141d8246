package cachestore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// These tests are the store's concurrency contract, run under -race in CI
// (scripts/check.sh): many goroutines sharing one Store (and the
// process-wide Shared registry) over one directory and over distinct
// directories, with budgets small enough that evictions run concurrently
// with puts and gets.

// TestConcurrentSharedSameDir: goroutines resolving the same directory
// through Shared hammer a small key space with mixed Put/Get/Remove/Len
// while the size bound forces evictions mid-traffic.
func TestConcurrentSharedSameDir(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("p"), 512)
	entrySize := int64(len(EncodeEntry(KindResult, payload)))
	opts := Options{MaxBytes: 4 * entrySize} // room for ~4 of 8 keys: constant eviction
	const goroutines = 16
	const ops = 60

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, err := Shared(dir, opts)
			if err != nil {
				t.Errorf("Shared: %v", err)
				return
			}
			for i := 0; i < ops; i++ {
				key := NewKey(KindResult, []byte{byte((g + i) % 8)})
				switch i % 4 {
				case 0, 1:
					if _, err := s.Put(key, payload); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				case 2:
					if got, status := s.Get(key); status == StatusHit && !bytes.Equal(got, payload) {
						t.Errorf("hit returned wrong payload")
						return
					} else if status == StatusCorrupt {
						t.Errorf("store produced a corrupt entry under concurrency")
						return
					}
				case 3:
					if i%8 == 3 {
						s.Remove(key)
					} else {
						s.Len()
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// The store must still work after the storm.
	s, err := Shared(dir, opts)
	if err != nil {
		t.Fatalf("Shared: %v", err)
	}
	key := NewKey(KindResult, []byte("after"))
	if _, err := s.Put(key, payload); err != nil {
		t.Fatalf("Put after storm: %v", err)
	}
	if _, status := s.Get(key); status != StatusHit {
		t.Fatalf("Get after storm = %v, want hit", status)
	}
}

// TestConcurrentSharedDistinctDirs: concurrent Shared opens and traffic
// over distinct directories must not interfere (one registry lock, many
// stores).
func TestConcurrentSharedDistinctDirs(t *testing.T) {
	const goroutines = 8
	dirs := make([]string, goroutines)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	payload := bytes.Repeat([]byte("q"), 256)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, err := Shared(dirs[g], Options{})
			if err != nil {
				t.Errorf("Shared(%s): %v", dirs[g], err)
				return
			}
			for i := 0; i < 40; i++ {
				key := NewKey(KindResult, []byte(fmt.Sprintf("g%d-%d", g, i%5)))
				if _, err := s.Put(key, payload); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, status := s.Get(key); status != StatusHit {
					t.Errorf("Get = %v, want hit", status)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentEvictAndPut: one goroutine keeps the store over budget
// (every Put triggers an eviction scan) while others put and re-get a
// working set — simultaneous evict + put must neither race nor wedge, and
// a successful Get must always return the exact committed payload.
func TestConcurrentEvictAndPut(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("e"), 512)
	entrySize := int64(len(EncodeEntry(KindResult, payload)))
	s := mustOpen(t, dir, Options{MaxBytes: 2 * entrySize}) // 2-entry budget

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the evictor: unique keys, each Put overflows the budget
		defer wg.Done()
		for i := 0; i < 100; i++ {
			key := NewKey(KindResult, []byte(fmt.Sprintf("churn-%d", i)))
			if _, err := s.Put(key, payload); err != nil {
				t.Errorf("churn Put: %v", err)
				return
			}
		}
	}()
	go func() { // the worker: one hot key, put + get
		defer wg.Done()
		key := NewKey(KindResult, []byte("hot"))
		for i := 0; i < 100; i++ {
			if _, err := s.Put(key, payload); err != nil {
				t.Errorf("hot Put: %v", err)
				return
			}
			if got, status := s.Get(key); status == StatusHit && !bytes.Equal(got, payload) {
				t.Errorf("hot Get returned wrong payload")
				return
			} else if status == StatusCorrupt {
				t.Errorf("hot entry read corrupt")
				return
			}
		}
	}()
	wg.Wait()
}
