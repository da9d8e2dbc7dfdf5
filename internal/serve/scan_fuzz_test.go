package serve

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzJournalScan feeds arbitrary bytes to the journal scanner that Replay
// and Recover read through. It must never panic, and every step must yield
// either a line whose envelope and CRC verify, a typed *corruptError
// pointing at the damaged line, or io.EOF once every byte is consumed —
// always making progress, so a scan over any input terminates.
func FuzzJournalScan(f *testing.F) {
	var journal []byte
	for _, line := range []journalLine{
		{Kind: "header", Header: &headerLine{Version: journalVersion, Net: "twitter", Seed: 7, Chars: 5, Model: "aggressive", Seeded: true}},
		{Kind: "event", Event: &eventLine{Seq: 1, Op: "observe", Trustor: 0, Trustee: 3, Type: 2, Success: true, Gain: 0.5}},
		{Kind: "epoch", Epoch: &epochLine{ID: 1, Events: 1}},
		{Kind: "query", Query: &queryLine{Epoch: 1, Trustor: 0, Trustee: 5, TW: 0.25, TWBits: "3fd0000000000000", Found: true}},
	} {
		phys, err := encodeJournalLine(line)
		if err != nil {
			f.Fatal(err)
		}
		journal = append(journal, phys...)
	}
	f.Add(journal)
	f.Add(journal[:len(journal)-7])                                        // torn tail
	f.Add(bytes.Replace(journal, []byte(`"seq":1`), []byte(`"seq":2`), 1)) // CRC mismatch
	f.Add([]byte("\n\n{}\n"))
	f.Add([]byte(`{"crc":"zz","line":{}}` + "\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s := newJournalScanner(bytes.NewReader(data))
		for step := 0; ; step++ {
			if step > len(data) {
				t.Fatalf("scan of %d bytes took more than %d steps", len(data), step)
			}
			start := s.Off()
			line, err := s.next()
			if errors.Is(err, io.EOF) {
				if s.Off() != int64(len(data)) {
					t.Fatalf("EOF at offset %d of %d bytes", s.Off(), len(data))
				}
				return
			}
			if s.Off() <= start {
				t.Fatalf("step %d made no progress at offset %d", step, start)
			}
			raw := data[start:s.Off()]
			var corrupt *corruptError
			switch {
			case err == nil:
				again, derr := decodeJournalLine(bytes.TrimSuffix(raw, []byte("\n")))
				if derr != nil || again.Kind != line.Kind {
					t.Fatalf("line %d verified but its bytes do not decode again: %v", s.Ln(), derr)
				}
			case errors.As(err, &corrupt):
				if corrupt.Off != start || corrupt.Ln != s.Ln() {
					t.Fatalf("corruptError at line %d offset %d, scanner is at line %d offset %d", corrupt.Ln, corrupt.Off, s.Ln(), start)
				}
			default:
				t.Fatalf("untyped scan error %T: %v", err, err)
			}
		}
	})
}
