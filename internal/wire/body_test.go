package wire

import (
	"io"
	"testing"
)

// countingReleaser counts the releases of its buffer.
type countingReleaser struct{ n int }

func (c *countingReleaser) Release() { c.n++ }

// TestBodyReadAfterClose: once the transport closes a body its buffer
// belongs to the pool again, so a late read must not see it and a
// second close must not release it twice.
func TestBodyReadAfterClose(t *testing.T) {
	var owner countingReleaser
	body := NewBody([]byte("DSKSHP\x00\x01 and more"), &owner)
	p := make([]byte, 8)
	if n, err := body.Read(p); n != 8 || err != nil || string(p) != "DSKSHP\x00\x01" {
		t.Fatalf("read before close: %d bytes %q, err %v", n, p[:n], err)
	}
	body.Close()
	body.Close()
	if owner.n != 1 {
		t.Fatalf("two closes released the buffer %d times, want once", owner.n)
	}
	if n, err := body.Read(p); n != 0 || err != io.EOF {
		t.Fatalf("read after close: %d bytes, err %v; want 0, EOF", n, err)
	}
}
