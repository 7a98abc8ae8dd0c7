package client

import (
	"io"
	"testing"
	"time"
)

// TestStreamBodyReadAllocatesNothing: the idle watchdog is one timer
// per response stream, re-armed by each Read, so a Read after the first
// allocates nothing — the proxy reads every shard body in scanner-sized
// reads.
func TestStreamBodyReadAllocatesNothing(t *testing.T) {
	b := &streamBody{body: io.NopCloser(zeros{}), cancel: func() {}, idle: time.Minute}
	b.raw = b.body
	defer b.Close()
	buf := make([]byte, 512)
	if _, err := b.Read(buf); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := b.Read(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a Read after the first allocates %.1f objects, want 0", n)
	}
}

// zeros is an endless stream of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}
