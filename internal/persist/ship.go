package persist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"disksig/internal/wire"
)

// Shipper errors surfaced through WaitAcked.
var (
	// ErrFenced reports that the follower rejected this shipper's term:
	// another node promoted itself, and this primary is deposed. Frames
	// after the fence were never applied remotely.
	ErrFenced = errors.New("persist: shipper fenced by a higher term")
	// ErrShipperStopped reports that the shipper was stopped or detached
	// while a caller was waiting on an ack.
	ErrShipperStopped = errors.New("persist: shipper stopped")
)

// ShipperConfig parameterizes WAL shipping to one follower.
type ShipperConfig struct {
	// FollowerURL is the follower's base URL; frames POST to
	// FollowerURL + "/v1/replication/ship".
	FollowerURL string
	// Term is the leadership term stamped on every ship request; the
	// follower fences requests whose term is below its own.
	Term uint64
	// Client is the HTTP client; nil means a dedicated one.
	Client *http.Client
	// Heartbeat is how often an empty ship request goes out when there
	// is nothing to ship, keeping the follower's last-contact (and its
	// readiness) fresh and propagating epoch advances promptly. <= 0
	// means 500ms.
	Heartbeat time.Duration
	// RetryWait is the pause after a transport error or unexpected
	// status before the loop retries. <= 0 means 50ms.
	RetryWait time.Duration
	// DrainTimeout bounds Drain (the snapshot path's pre-reset barrier).
	// <= 0 means 5s.
	DrainTimeout time.Duration
	// MaxChunk is the per-request frame byte target. <= 0 means 1 MiB.
	MaxChunk int
	// OnFenced fires (once, from the ship loop) when the follower fences
	// this shipper, carrying the follower's higher term. The server uses
	// it to step the deposed primary down.
	OnFenced func(peerTerm uint64)
}

func (c ShipperConfig) withDefaults() ShipperConfig {
	if c.Heartbeat <= 0 {
		c.Heartbeat = 500 * time.Millisecond
	}
	if c.RetryWait <= 0 {
		c.RetryWait = 50 * time.Millisecond
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.MaxChunk <= 0 {
		c.MaxChunk = 1 << 20
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return c
}

// Shipper tails the primary's WAL and pushes frames to one follower,
// tracking the follower's acked high-water mark. Ingestion blocks on
// WaitAcked, which is what turns "200 from the primary" into "this
// batch is on two nodes".
type Shipper struct {
	mgr *Manager
	cfg ShipperConfig

	notify chan struct{} // buffered wake-up: new frames are durable
	stopc  chan struct{}

	mu       sync.Mutex
	acked    Position // follower's high-water mark
	next     Position // next offset to ship from
	fenced   bool
	peerTerm uint64
	stopped  bool
	lastErr  error
	lastAck  time.Time
	wake     chan struct{} // closed and replaced on every state change

	framesShipped uint64
	bytesShipped  uint64
	heartbeats    uint64
	conflicts     uint64
	shipErrors    uint64
}

// ShipperStats is a point-in-time view for /metrics and the
// replication status endpoint.
type ShipperStats struct {
	FollowerURL   string
	Term          uint64
	Acked         Position
	Next          Position
	Fenced        bool
	PeerTerm      uint64
	LastAckAge    time.Duration
	LastError     string
	FramesShipped uint64
	BytesShipped  uint64
	Heartbeats    uint64
	Conflicts     uint64
	ShipErrors    uint64
}

func newShipper(m *Manager, cfg ShipperConfig, from Position) *Shipper {
	return &Shipper{
		mgr:    m,
		cfg:    cfg.withDefaults(),
		notify: make(chan struct{}, 1),
		stopc:  make(chan struct{}),
		acked:  from,
		next:   from,
		wake:   make(chan struct{}),
	}
}

// nudge wakes the ship loop without blocking.
func (s *Shipper) nudge() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// broadcastLocked wakes every WaitAcked. Callers hold s.mu.
func (s *Shipper) broadcastLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// Stop terminates the ship loop and fails pending WaitAcked calls.
func (s *Shipper) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.broadcastLocked()
	s.mu.Unlock()
	close(s.stopc)
}

// run is the ship loop: it pushes pending frames when nudged and sends
// heartbeats when idle.
func (s *Shipper) run() {
	t := time.NewTicker(s.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-s.stopc:
			return
		case <-s.notify:
			s.shipPending(false)
		case <-t.C:
			s.shipPending(true)
		}
		s.mu.Lock()
		done := s.fenced || s.stopped
		s.mu.Unlock()
		if done {
			return
		}
	}
}

// shipPending ships until the follower has acked everything durable (or
// an error defers to the next wake-up). With heartbeat set, at least
// one request goes out even when nothing is pending.
func (s *Shipper) shipPending(heartbeat bool) {
	for {
		s.mu.Lock()
		if s.fenced || s.stopped {
			s.mu.Unlock()
			return
		}
		next := s.next
		s.mu.Unlock()

		durable := s.mgr.Position()
		bp := shipBufs.Get().(*shipBuf)
		body := appendShipHeader((*bp)[:0], s.cfg.Term, next)
		if next.Epoch == durable.Epoch && next.Offset < durable.Offset {
			var err error
			body, _, err = s.mgr.appendWALFrames(body, next.Epoch, next.Offset, s.cfg.MaxChunk)
			if err != nil {
				bp.Release()
				// An epoch superseded mid-read means a snapshot is resetting
				// the WAL; Snapshot advances this shipper right after.
				if !errors.Is(err, errEpochGone) {
					s.noteError(err)
				}
				return
			}
		} else if !heartbeat {
			bp.Release()
			return
		}
		*bp = body
		frames := len(body) - shipHeaderSize

		again, err := s.shipOnce(bp, frames)
		if err != nil {
			s.noteError(err)
			select {
			case <-time.After(s.cfg.RetryWait):
			case <-s.stopc:
			}
			return
		}
		if frames > 0 {
			s.mu.Lock()
			s.framesShipped++
			s.bytesShipped += uint64(frames)
			s.mu.Unlock()
		} else if heartbeat {
			s.mu.Lock()
			s.heartbeats++
			s.mu.Unlock()
			heartbeat = false
		}
		if !again && frames == 0 {
			return
		}
	}
}

// ShipAck is the follower's answer to a ship request: its post-apply
// high-water mark and its term (on a 403 fence, the term that deposed
// the sender). The fields are in the order encoding/json writes a map's
// sorted keys, the order the ack had as one.
type ShipAck struct {
	Epoch  uint64 `json:"epoch"`
	Offset int64  `json:"offset"`
	Term   uint64 `json:"term"`
}

// shipBufs recycles ship request bodies: a header with the frames read
// straight behind it.
var shipBufs = sync.Pool{New: func() any { return new(shipBuf) }}

// shipBuf is one pooled ship request body. Its request's transport
// gives it back by closing the wire.Body that reads it.
type shipBuf []byte

// Release returns the buffer to its pool.
func (b *shipBuf) Release() { shipBufs.Put(b) }

// shipOnce sends one ship request whose body is the pooled buffer bp,
// holding frames bytes of frames; the request's transport returns bp to
// its pool. again=true means the caller should continue the loop
// immediately (progress was made or a conflict resynced the cursor).
func (s *Shipper) shipOnce(bp *shipBuf, frames int) (again bool, err error) {
	body := wire.NewBody(*bp, bp)
	req, err := http.NewRequest(http.MethodPost, s.cfg.FollowerURL+"/v1/replication/ship", body)
	if err != nil {
		body.Close()
		return false, err
	}
	req.ContentLength = int64(len(*bp))
	req.Header.Set("Content-Type", ShipContentType)
	resp, err := s.cfg.Client.Do(req)
	if err != nil {
		return false, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	var ack ShipAck
	derr := json.NewDecoder(resp.Body).Decode(&ack)
	switch resp.StatusCode {
	case http.StatusOK:
		if derr != nil {
			return false, fmt.Errorf("persist: decoding ship ack: %w", derr)
		}
		pos := Position{Epoch: ack.Epoch, Offset: ack.Offset}
		s.mu.Lock()
		if s.acked.Before(pos) {
			s.acked = pos
		}
		if s.next.Before(pos) {
			s.next = pos
		}
		s.lastAck = time.Now()
		s.lastErr = nil
		s.broadcastLocked()
		s.mu.Unlock()
		return frames > 0, nil
	case http.StatusConflict:
		// Position mismatch (or a frame torn in transit): the follower
		// answered with its actual high-water mark; resume from there.
		if derr != nil {
			return false, fmt.Errorf("persist: decoding ship conflict: %w", derr)
		}
		pos := Position{Epoch: ack.Epoch, Offset: ack.Offset}
		s.mu.Lock()
		s.conflicts++
		s.next = pos
		if s.acked.Before(pos) {
			s.acked = pos
			s.broadcastLocked()
		}
		s.mu.Unlock()
		return true, nil
	case http.StatusForbidden:
		// Fenced: a higher term deposed us. Terminal for this shipper.
		// OnFenced runs before the waiters wake, so a caller that sees
		// ErrFenced finds the callback's work done.
		s.mu.Lock()
		alreadyFenced := s.fenced
		s.fenced = true
		s.peerTerm = ack.Term
		s.mu.Unlock()
		if !alreadyFenced && s.cfg.OnFenced != nil {
			s.cfg.OnFenced(ack.Term)
		}
		s.mu.Lock()
		s.broadcastLocked()
		s.mu.Unlock()
		return false, nil
	default:
		return false, fmt.Errorf("persist: ship request: status %d", resp.StatusCode)
	}
}

func (s *Shipper) noteError(err error) {
	s.mu.Lock()
	s.lastErr = err
	s.shipErrors++
	s.mu.Unlock()
}

// WaitAcked blocks until the follower's high-water mark reaches pos,
// the shipper is fenced or stopped, or ctx expires. A nil return means
// every WAL byte up to pos is applied on the follower.
func (s *Shipper) WaitAcked(ctx context.Context, pos Position) error {
	s.nudge()
	for {
		s.mu.Lock()
		switch {
		case !s.acked.Before(pos):
			s.mu.Unlock()
			return nil
		case s.fenced:
			s.mu.Unlock()
			return ErrFenced
		case s.stopped:
			s.mu.Unlock()
			return ErrShipperStopped
		}
		wake := s.wake
		s.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Drain blocks until the follower has acked everything durable — the
// barrier Snapshot runs before resetting the WAL, so a reset can never
// destroy frames the follower has not yet received.
func (s *Shipper) Drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	return s.WaitAcked(ctx, s.mgr.Position())
}

// advanceEpoch moves the stream cursor to the start of a fresh WAL
// epoch after a snapshot reset. The caller (Snapshot) guarantees the
// follower acked everything in the previous epoch first.
func (s *Shipper) advanceEpoch(epoch uint64) {
	s.mu.Lock()
	pos := StartPosition(epoch)
	s.acked = pos
	s.next = pos
	s.broadcastLocked()
	s.mu.Unlock()
	s.nudge()
}

// Fenced reports whether the follower rejected this shipper's term, and
// the follower's term when it did.
func (s *Shipper) Fenced() (bool, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fenced, s.peerTerm
}

// Acked returns the follower's current high-water mark.
func (s *Shipper) Acked() Position {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked
}

// Stats returns a point-in-time view of the shipper.
func (s *Shipper) Stats() ShipperStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ShipperStats{
		FollowerURL:   s.cfg.FollowerURL,
		Term:          s.cfg.Term,
		Acked:         s.acked,
		Next:          s.next,
		Fenced:        s.fenced,
		PeerTerm:      s.peerTerm,
		FramesShipped: s.framesShipped,
		BytesShipped:  s.bytesShipped,
		Heartbeats:    s.heartbeats,
		Conflicts:     s.conflicts,
		ShipErrors:    s.shipErrors,
	}
	if !s.lastAck.IsZero() {
		st.LastAckAge = time.Since(s.lastAck)
	}
	if s.lastErr != nil {
		st.LastError = s.lastErr.Error()
	}
	return st
}
