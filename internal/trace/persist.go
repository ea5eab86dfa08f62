package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// File format: a small binary container so traces can be captured in one
// run (cmd/acesim -traceout) and analysed offline (cmd/traceview).
//
//	magic "NSTR", version u16, pageShift u16,
//	nPages u32, nWords u32,
//	nPages  × { vpn u32, readers u16, writers u16, reads u64, writes u64 }
//	nWords  × { word u32, readers u16, writers u16, reads u64, writes u64 }
const (
	traceMagic   = "NSTR"
	traceVersion = 1
)

type record struct {
	Key     uint32
	Readers uint16
	Writers uint16
	Reads   uint64
	Writes  uint64
}

// Save writes the collector's trace to w.
func (c *Collector) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	hdr := []any{
		uint16(traceVersion),
		uint16(c.shift),
		uint32(len(c.pages)),
		uint32(len(c.words)),
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	// Write records in key order: map iteration order would make the
	// file bytes differ between otherwise identical runs.
	write := func(m map[uint32]*use) error {
		keys := make([]uint32, 0, len(m))
		//numalint:ordered keys is sorted below
		for key := range m {
			keys = append(keys, key)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, key := range keys {
			u := m[key]
			rec := record{Key: key, Readers: u.readers, Writers: u.writers, Reads: u.reads, Writes: u.writes}
			if err := binary.Write(bw, binary.LittleEndian, &rec); err != nil {
				return err
			}
		}
		return nil
	}
	if err := write(c.pages); err != nil {
		return err
	}
	if err := write(c.words); err != nil {
		return err
	}
	return bw.Flush()
}

// Load reads a trace previously written by Save.
func Load(r io.Reader) (*Collector, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	var version, shift uint16
	var nPages, nWords uint32
	for _, v := range []any{&version, &shift, &nPages, &nWords} {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("trace: reading header: %w", err)
		}
	}
	if version != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	c := New(uint(shift), nWords > 0)
	read := func(m map[uint32]*use, n uint32) error {
		for i := uint32(0); i < n; i++ {
			var rec record
			if err := binary.Read(br, binary.LittleEndian, &rec); err != nil {
				return err
			}
			m[rec.Key] = &use{readers: rec.Readers, writers: rec.Writers, reads: rec.Reads, writes: rec.Writes}
		}
		return nil
	}
	if err := read(c.pages, nPages); err != nil {
		return nil, fmt.Errorf("trace: reading pages: %w", err)
	}
	if err := read(c.words, nWords); err != nil {
		return nil, fmt.Errorf("trace: reading words: %w", err)
	}
	return c, nil
}

// PageShift reports the page shift the trace was captured with.
func (c *Collector) PageShift() uint { return c.shift }
