package release

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestNewSamplerPinIsPerCall builds a value-type mechanism from concurrent
// goroutines, half of them with WithSampler(SamplerFast): every New call
// must return exactly the pin it asked for, however the calls interleave.
// Value-type mechanisms compare equal across calls, so a pin kept anywhere
// but in the call's own state leaks between them.
func TestNewSamplerPinIsPerCall(t *testing.T) {
	const goroutines, calls = 4, 20000
	var wg sync.WaitGroup
	var wrong atomic.Int64
	for g := 0; g < goroutines; g++ {
		fast := g%2 == 0
		var opts []Option
		if fast {
			opts = []Option{WithSampler(SamplerFast)}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				m, err := New("IDENTITY", opts...)
				if err != nil {
					t.Error(err)
					return
				}
				if pinned := underlying(m) != m; pinned != fast {
					wrong.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d of %d New calls returned another call's sampler pin", n, goroutines*calls)
	}
}

// TestWithSamplerOutsideNew pins that the option reports, rather than
// drops, a pin it cannot attach to a New call.
func TestWithSamplerOutsideNew(t *testing.T) {
	m, err := New("IDENTITY")
	if err != nil {
		t.Fatal(err)
	}
	if err := WithSampler(SamplerFast)(m); err == nil {
		t.Fatal("WithSampler applied outside New: want an error")
	}
}
