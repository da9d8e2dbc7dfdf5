package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"
)

// The trust-assertion journal is the engine's audit trail AND its system of
// record: an append-only JSONL stream recording everything needed to
// reproduce every served trust value byte-for-byte, and everything needed to
// rebuild the live engine state after a crash (Recover). The first line is a
// header carrying the full deterministic construction recipe (network
// profile, seed, characteristic alphabet, trust model, seeding); after that
// the single writer goroutine appends one line per applied event (in apply
// order, with a sequence number) and one line per published epoch (with the
// cumulative applied-event count), while query goroutines append one line
// per served value (epoch id, inputs, and the answer's exact float64 bits).
//
// Since version 2 every physical line is a CRC-wrapped envelope
//
//	{"crc":"xxxxxxxx","line":{"kind":...}}
//
// where crc is the IEEE CRC32 of the exact bytes of the inner "line" value.
// The checksum makes corruption — a torn tail after a crash, a flipped bit
// on disk — detectable instead of silently replayable: Replay fails on any
// damaged line, Recover tolerates exactly one damaged *final* line (the
// torn-tail rule) and truncates it away.
//
// Durability is group-commit: appends go to an internal buffer, and the
// writer goroutine calls sync() once per applied batch and once per epoch
// line (FsyncBatch, the default), flushing the buffer and fsyncing the
// underlying file when it can. IngestCtx acknowledges an event only after the
// sync covering its line returned, so an acknowledged event is on disk.
// Because the epoch line is synced before the epoch is published, the
// "epoch journaled before published" ordering is a durability invariant:
// no served query can reference an epoch the disk has not seen.

// journalVersion is bumped on breaking format changes. Version 2 introduced
// the per-line CRC envelope; version 3 superseded the header's policy field
// with the registered trust-model name (Replay and Recover still speak
// version 2 bit-for-bit — see replayHeader).
const journalVersion = 3

// prevJournalVersion is the oldest header version Replay and Recover still
// accept: version-2 journals (bare policy header) replay byte-for-byte.
const prevJournalVersion = 2

// FsyncMode selects when the journal fsyncs the underlying file.
type FsyncMode int

const (
	// FsyncBatch (the default) syncs once per applied event batch and once
	// per epoch line — group commit: one fsync covers every event the batch
	// acknowledged.
	FsyncBatch FsyncMode = iota
	// fsyncAlways syncs after every appended line, including query lines.
	fsyncAlways
	// fsyncOff never syncs; the buffer is still flushed per batch and on
	// close. A crash can lose acknowledged events in this mode.
	fsyncOff
)

// String renders the flag spelling.
func (m FsyncMode) String() string {
	switch m {
	case FsyncBatch:
		return "batch"
	case fsyncAlways:
		return "always"
	case fsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncMode(%d)", int(m))
}

// ParseFsyncMode parses the -fsync flag spelling.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "batch":
		return FsyncBatch, nil
	case "always":
		return fsyncAlways, nil
	case "off":
		return fsyncOff, nil
	}
	return 0, fmt.Errorf("unknown fsync mode %q (want always, batch, or off)", s)
}

// syncer is the optional fsync capability of a journal writer. *os.File and
// faultfs.File implement it; a bytes.Buffer does not, and then sync degrades
// to a buffer flush.
type syncer interface{ Sync() error }

// journalLine is the tagged union of journal entries: exactly one of the
// payload fields is set, selected by Kind.
type journalLine struct {
	Kind   string      `json:"kind"`
	Header *headerLine `json:"header,omitempty"`
	Event  *eventLine  `json:"event,omitempty"`
	Epoch  *epochLine  `json:"epoch,omitempty"`
	Query  *queryLine  `json:"query,omitempty"`
}

// headerLine records the deterministic construction recipe of the served
// world. Replay and Recover rebuild the identical population, task universe,
// and searcher from these fields alone.
type headerLine struct {
	Version int    `json:"version"`
	Net     string `json:"net"`
	Nodes   int    `json:"nodes"`
	Seed    uint64 `json:"seed"`
	Chars   int    `json:"chars"`
	// Policy pins the trust policy of version-2 headers. Version 3
	// supersedes it with Model and omits it.
	Policy string `json:"policy,omitempty"`
	// Model names the registered trust model (version 3 and later). An
	// unregistered name is a hard replay error, never a silent default.
	Model  string  `json:"model,omitempty"`
	Seeded bool    `json:"seeded"`
	Theta  float64 `json:"theta"`
}

// eventLine is one ingested event, journaled at apply time by the writer
// goroutine, so line order is apply order. Seq is 1-based and dense.
type eventLine struct {
	Seq     uint64  `json:"seq"`
	Op      string  `json:"op"` // "observe" or "recommend"
	Trustor int32   `json:"trustor"`
	Trustee int32   `json:"trustee"`
	Type    int     `json:"type"` // task-type index into the universe
	Success bool    `json:"success,omitempty"`
	Gain    float64 `json:"gain,omitempty"`
	Damage  float64 `json:"damage,omitempty"`
	Cost    float64 `json:"cost,omitempty"`
	Abusive bool    `json:"abusive,omitempty"`
	S       float64 `json:"s,omitempty"`
	G       float64 `json:"g,omitempty"`
	D       float64 `json:"d,omitempty"`
	C       float64 `json:"c,omitempty"`
}

// epochLine marks an epoch publish. Events is the cumulative applied-event
// count at capture time — Replay cross-checks it against its own counter.
type epochLine struct {
	ID     uint64 `json:"id"`
	Events uint64 `json:"events"`
}

// queryLine is one served trust value. TWBits is the exact float64 bit
// pattern (%016x) — the byte-for-byte replay contract compares these, not
// the human-readable TW rendering.
type queryLine struct {
	Epoch   uint64  `json:"epoch"`
	Trustor int32   `json:"trustor"`
	Trustee int32   `json:"trustee"`
	Type    int     `json:"type"`
	TW      float64 `json:"tw"`
	TWBits  string  `json:"tw_bits"`
	Found   bool    `json:"found"`
	Direct  bool    `json:"direct"`
}

// crcEnvelope is the physical line layout since version 2. Line holds the
// exact bytes of the inner journalLine value; CRC is their IEEE CRC32,
// rendered %08x.
type crcEnvelope struct {
	CRC  string          `json:"crc"`
	Line json.RawMessage `json:"line"`
}

// encodeJournalLine renders one physical journal line (CRC envelope plus
// trailing newline).
func encodeJournalLine(line journalLine) ([]byte, error) {
	inner, err := json.Marshal(line)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(inner)+24)
	out = fmt.Appendf(out, `{"crc":"%08x","line":`, crc32.ChecksumIEEE(inner))
	out = append(out, inner...)
	out = append(out, '}', '\n')
	return out, nil
}

// decodeJournalLine verifies one physical line's envelope and CRC and
// returns the inner line. phys must not include the trailing newline (it is
// tolerated if present).
func decodeJournalLine(phys []byte) (journalLine, error) {
	var env crcEnvelope
	if err := json.Unmarshal(phys, &env); err != nil {
		return journalLine{}, fmt.Errorf("malformed envelope: %w", err)
	}
	var want uint32
	if _, err := fmt.Sscanf(env.CRC, "%08x", &want); err != nil {
		return journalLine{}, fmt.Errorf("malformed crc %q", env.CRC)
	}
	if got := crc32.ChecksumIEEE(env.Line); got != want {
		return journalLine{}, fmt.Errorf("crc mismatch: line hashes to %08x, envelope says %08x", got, want)
	}
	var line journalLine
	if err := json.Unmarshal(env.Line, &line); err != nil {
		return journalLine{}, fmt.Errorf("malformed line payload: %w", err)
	}
	return line, nil
}

// journal serializes concurrent appenders (the writer goroutine for events
// and epochs, query goroutines for served values) onto one JSONL stream,
// buffering internally and syncing per the configured FsyncMode. A nil
// *journal is valid and discards everything.
type journal struct {
	mu   sync.Mutex
	buf  *bufio.Writer
	sync syncer  // nil when the underlying writer cannot fsync
	fl   flusher // caller-side buffer to push through when there is no syncer
	mode FsyncMode
	lat  *latencyHist // fsync latency, surfaced as fsync_p99_ns

	err    error
	errSeq uint64 // Seq of the event append that first failed, 0 otherwise
}

type flusher interface{ Flush() error }

// newJournal wraps w, or returns nil (a discarding journal) when w is nil.
// lat, when non-nil, receives one sample per fsync.
func newJournal(w io.Writer, mode FsyncMode, lat *latencyHist) *journal {
	if w == nil {
		return nil
	}
	j := &journal{buf: bufio.NewWriter(w), mode: mode, lat: lat}
	if s, ok := w.(syncer); ok {
		j.sync = s
	} else if f, ok := w.(flusher); ok {
		j.fl = f
	}
	return j
}

// append encodes one line, keeping the first error (and, for event lines,
// the sequence number it lost). In fsyncAlways mode the line is flushed and
// synced before append returns.
func (j *journal) append(line journalLine) {
	if j == nil {
		return
	}
	j.mu.Lock()
	if j.err != nil {
		j.mu.Unlock()
		return
	}
	phys, err := encodeJournalLine(line)
	if err == nil {
		_, err = j.buf.Write(phys)
	}
	if err != nil {
		j.err = err
		if line.Event != nil {
			j.errSeq = line.Event.Seq
		}
		j.mu.Unlock()
		return
	}
	j.mu.Unlock()
	if j.mode == fsyncAlways {
		j.syncNow()
	}
}

func (j *journal) header(h headerLine) { j.append(journalLine{Kind: "header", Header: &h}) }
func (j *journal) event(e eventLine)   { j.append(journalLine{Kind: "event", Event: &e}) }
func (j *journal) epoch(e epochLine)   { j.append(journalLine{Kind: "epoch", Epoch: &e}) }
func (j *journal) query(q queryLine)   { j.append(journalLine{Kind: "query", Query: &q}) }

// syncNow is the group commit point: it flushes the buffer and, unless the
// mode is fsyncOff, fsyncs the underlying file. The fsync itself runs
// outside the mutex — Sync concurrent with Write is safe and covers at
// least every byte flushed before the call — so a slow or stalled disk
// blocks only the syncing goroutine, never concurrent query appends.
// Returns the journal's sticky error state.
func (j *journal) syncNow() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	if j.err != nil {
		defer j.mu.Unlock()
		return j.errLocked()
	}
	if err := j.buf.Flush(); err != nil {
		j.err = err
		defer j.mu.Unlock()
		return j.errLocked()
	}
	s, fl := j.sync, j.fl
	j.mu.Unlock()

	var err error
	switch {
	case j.mode == fsyncOff:
	case s != nil:
		start := time.Now()
		err = s.Sync()
		if j.lat != nil {
			j.lat.observe(time.Since(start).Nanoseconds())
		}
	case fl != nil:
		err = fl.Flush()
	}
	if err == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == nil {
		j.err = err
	}
	return j.errLocked()
}

// lastErr reports the sticky error (nil journals are healthy).
func (j *journal) lastErr() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errLocked()
}

// errLocked wraps the sticky error, naming the lost event sequence when the
// failure happened on an event append — the SIGTERM drain path surfaces
// this through the exit code, so a partial write is never silent.
func (j *journal) errLocked() error {
	if j.err == nil {
		return nil
	}
	if j.errSeq > 0 {
		return fmt.Errorf("serve: journal: event seq %d: %w", j.errSeq, j.err)
	}
	return fmt.Errorf("serve: journal: %w", j.err)
}

// close flushes, syncs, and returns the first error seen on the stream.
func (j *journal) close() error {
	if j == nil {
		return nil
	}
	return j.syncNow()
}
