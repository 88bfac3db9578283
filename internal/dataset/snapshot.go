package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Binary full-table snapshot format, the compaction anchor of the
// write-ahead log (DESIGN §14). Layout, all integers little-endian:
//
//	magic   "HDSNAP01"                     8 bytes
//	epoch   uint64
//	nrows   uint64
//	ncols   uint32
//	per column:
//	  kind    uint8   (0 continuous, 1 categorical)
//	  name    uint32 length + bytes
//	  continuous:   nrows × float64 (IEEE 754 bits)
//	  categorical:  uint32 nlevels, nlevels × (uint32 length + bytes),
//	                nrows × uint32 codes
//	crc     uint32 CRC32C over everything above
//
// A snapshot whose checksum fails decodes to an error; recovery then
// falls back to an older snapshot or the as-loaded table.

var snapshotMagic = [8]byte{'H', 'D', 'S', 'N', 'A', 'P', '0', '1'}

var snapCastagnoli = crc32.MakeTable(crc32.Castagnoli)

type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, snapCastagnoli, p[:n])
	return n, err
}

// EncodeSnapshot writes t (at the given epoch) in the snapshot format.
func EncodeSnapshot(w io.Writer, t *Table, epoch uint64) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	cw := &crcWriter{w: bw}
	if _, err := cw.Write(snapshotMagic[:]); err != nil {
		return fmt.Errorf("dataset: encode snapshot: %w", err)
	}
	var u64 [8]byte
	var u32 [4]byte
	putU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(u64[:], v)
		_, err := cw.Write(u64[:])
		return err
	}
	putU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(u32[:], v)
		_, err := cw.Write(u32[:])
		return err
	}
	putStr := func(s string) error {
		if err := putU32(uint32(len(s))); err != nil {
			return err
		}
		_, err := io.WriteString(cw, s)
		return err
	}
	if err := putU64(epoch); err != nil {
		return err
	}
	if err := putU64(uint64(t.nrows)); err != nil {
		return err
	}
	if err := putU32(uint32(len(t.cols))); err != nil {
		return err
	}
	for i := range t.cols {
		c := &t.cols[i]
		kind := byte(0)
		if c.field.Kind == Categorical {
			kind = 1
		}
		if _, err := cw.Write([]byte{kind}); err != nil {
			return err
		}
		if err := putStr(c.field.Name); err != nil {
			return err
		}
		if c.field.Kind == Continuous {
			for _, f := range c.floats {
				if err := putU64(math.Float64bits(f)); err != nil {
					return err
				}
			}
			continue
		}
		if err := putU32(uint32(len(c.levels))); err != nil {
			return err
		}
		for _, l := range c.levels {
			if err := putStr(l); err != nil {
				return err
			}
		}
		for _, code := range c.codes {
			if err := putU32(uint32(code)); err != nil {
				return err
			}
		}
	}
	binary.LittleEndian.PutUint32(u32[:], cw.crc)
	if _, err := bw.Write(u32[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// DecodeSnapshot reads a snapshot back into a table and its epoch,
// verifying the trailing checksum before trusting any field.
func DecodeSnapshot(r io.Reader) (*Table, uint64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, fmt.Errorf("dataset: read snapshot: %w", err)
	}
	if len(data) < len(snapshotMagic)+8+8+4+4 {
		return nil, 0, fmt.Errorf("dataset: snapshot too short (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, snapCastagnoli), binary.LittleEndian.Uint32(tail); got != want {
		return nil, 0, fmt.Errorf("dataset: snapshot checksum mismatch (%08x != %08x)", got, want)
	}
	if string(body[:8]) != string(snapshotMagic[:]) {
		return nil, 0, fmt.Errorf("dataset: bad snapshot magic %q", body[:8])
	}
	pos := 8
	need := func(n int) error {
		if len(body)-pos < n {
			return fmt.Errorf("dataset: snapshot truncated at offset %d", pos)
		}
		return nil
	}
	getU64 := func() (uint64, error) {
		if err := need(8); err != nil {
			return 0, err
		}
		v := binary.LittleEndian.Uint64(body[pos:])
		pos += 8
		return v, nil
	}
	getU32 := func() (uint32, error) {
		if err := need(4); err != nil {
			return 0, err
		}
		v := binary.LittleEndian.Uint32(body[pos:])
		pos += 4
		return v, nil
	}
	getStr := func() (string, error) {
		n, err := getU32()
		if err != nil {
			return "", err
		}
		if err := need(int(n)); err != nil {
			return "", err
		}
		s := string(body[pos : pos+int(n)])
		pos += int(n)
		return s, nil
	}
	epoch, err := getU64()
	if err != nil {
		return nil, 0, err
	}
	nrows64, err := getU64()
	if err != nil {
		return nil, 0, err
	}
	// The checksum already passed, so these bounds only guard against a
	// snapshot from a different format revision.
	if nrows64 > uint64(len(body)) {
		return nil, 0, fmt.Errorf("dataset: snapshot claims %d rows in %d bytes", nrows64, len(body))
	}
	nrows := int(nrows64)
	ncols, err := getU32()
	if err != nil {
		return nil, 0, err
	}
	b := NewBuilder()
	for ci := 0; ci < int(ncols); ci++ {
		if err := need(1); err != nil {
			return nil, 0, err
		}
		kind := body[pos]
		pos++
		name, err := getStr()
		if err != nil {
			return nil, 0, err
		}
		switch kind {
		case 0:
			floats := make([]float64, nrows)
			for i := range floats {
				bits, err := getU64()
				if err != nil {
					return nil, 0, err
				}
				floats[i] = math.Float64frombits(bits)
			}
			b.AddFloat(name, floats)
		case 1:
			nlev, err := getU32()
			if err != nil {
				return nil, 0, err
			}
			if uint64(nlev) > uint64(len(body)) {
				return nil, 0, fmt.Errorf("dataset: snapshot claims %d levels in %d bytes", nlev, len(body))
			}
			levels := make([]string, nlev)
			for i := range levels {
				if levels[i], err = getStr(); err != nil {
					return nil, 0, err
				}
			}
			codes := make([]int, nrows)
			for i := range codes {
				c, err := getU32()
				if err != nil {
					return nil, 0, err
				}
				if int(c) >= len(levels) {
					return nil, 0, fmt.Errorf("dataset: snapshot code %d out of dictionary (%d levels)", c, len(levels))
				}
				codes[i] = int(c)
			}
			b.AddCategoricalCodes(name, codes, levels)
		default:
			return nil, 0, fmt.Errorf("dataset: snapshot column kind %d unknown", kind)
		}
	}
	if pos != len(body) {
		return nil, 0, fmt.Errorf("dataset: %d trailing snapshot bytes", len(body)-pos)
	}
	tab, err := b.Build()
	if err != nil {
		return nil, 0, fmt.Errorf("dataset: rebuild snapshot table: %w", err)
	}
	return tab, epoch, nil
}
