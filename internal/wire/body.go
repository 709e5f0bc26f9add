package wire

import (
	"bytes"
	"io"
	"sync"
)

// A Releaser takes back a pooled buffer once nothing reads it any more.
type Releaser interface{ Release() }

// Body is an HTTP request body that reads a pooled buffer and hands it
// back, through its Releaser, when the body is closed. net/http may read
// or close a request body after RoundTrip returns — a server that
// answers before reading the body leaves the transport still writing
// it — so a buffer that went back to its pool when Do returned could be
// refilled while it is still being sent. The transport closes every
// request body, on errors too, so the close is the release point. A read
// after the close sees EOF, never bytes someone else now writes, and
// only the first close releases.
type Body struct {
	mu    sync.Mutex
	owner Releaser // nil once closed
	r     bytes.Reader
}

// NewBody returns a body reading b, which owner releases on close.
func NewBody(b []byte, owner Releaser) *Body {
	body := &Body{owner: owner}
	body.r.Reset(b)
	return body
}

func (b *Body) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.owner == nil {
		return 0, io.EOF
	}
	return b.r.Read(p)
}

// Close releases the buffer the first time it is called.
func (b *Body) Close() error {
	b.mu.Lock()
	owner := b.owner
	b.owner = nil
	b.mu.Unlock()
	if owner != nil {
		owner.Release()
	}
	return nil
}
