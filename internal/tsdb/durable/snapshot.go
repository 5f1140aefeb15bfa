package durable

// Checkpoint files: one immutable, self-contained serialization of a
// database's columnar state (the on-disk analogue of InfluxDB's read-only
// TSM files). The tsdb layer converts its in-memory runs to and from the
// neutral Snapshot structs below; this file owns the bytes.
//
// Layout:
//
//	[8B magic "LMSCKP2\n"][payload][4B CRC32 (IEEE) of payload]
//
// The payload nests measurements → series → runs → columns. Every run
// starts with a kind byte: raw runs follow with their columns, compressed
// runs carry their Gorilla-style chunks verbatim — checkpoint write skips
// re-encoding, recovery loads them without a decode pass. Sorted
// timestamp columns are delta-encoded as uvarints after a fixed 64-bit
// anchor (metric samples arrive at near-constant intervals, so deltas are
// 1-5 bytes instead of 8), integer columns are zigzag varints, float
// columns raw 64-bit words, string columns varint ids into the
// measurement's interned table. The file is written to a temp name,
// fsynced and atomically renamed to
//
//	checkpoint-%08d.snap
//
// where the number is the WAL segment recovery must replay from: state in
// segments below it is captured by the checkpoint, so they are deleted
// once the rename lands. Load walks the checkpoints newest-first and
// skips files that fail the CRC (a crash can only tear the temp file, but
// media corruption of a renamed checkpoint must not take recovery down
// with it when an older valid checkpoint plus a longer WAL tail exists).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/fsys"
	"repro/internal/lineproto"
)

// snapMagic opens every checkpoint file. snapMagicV1 is the retired PR 5
// format (raw runs without the kind byte): no writer for it exists any
// more and LoadLatestSnapshot refuses it by name instead of treating it as
// garbage.
const (
	snapMagic   = "LMSCKP2\n"
	snapMagicV1 = "LMSCKP1\n"
)

// Per-run kind bytes.
const (
	runKindRaw  = 0
	runKindComp = 1
)

// Snapshot is the neutral, format-owning image of one database.
type Snapshot struct {
	Measurements []Measurement
}

// Measurement is one measurement's schema, interned strings and series.
type Measurement struct {
	Name   string
	Fields []FieldSchema
	Strs   []string // interned string field values; columns hold ids
	Series []Series
}

// FieldSchema records one field of the measurement schema.
type FieldSchema struct {
	Name string
	Kind lineproto.ValueKind
}

// Series is one tag set's run list, in creation (log-structured) order.
type Series struct {
	Tags map[string]string
	Runs []Run
}

// Run is one sorted columnar run: either raw (a timestamp column plus one
// column per field) or compressed (Comp non-nil, Ts/Cols empty).
type Run struct {
	Ts   []int64
	Cols []Col
	Comp *CompRun
}

// CompRun is one compressed run: per-column chunk bytes plus the header
// fields needed without decoding (row count, time bounds). It is the tsdb
// layer's resident form of the run as well as the checkpoint's; the codecs
// that fill and read the chunks live there (tsdb/compress.go), this
// package frames and CRCs them and never decodes them. Immutable once
// published.
type CompRun struct {
	N            int
	MinTS, MaxTS int64
	RawBytes     int64  // resident-byte estimate of the raw form (ratio gauge)
	Ts           []byte // delta-of-delta timestamp chunk
	Cols         []CompCol
}

// CompCol is one field's compressed column chunk.
type CompCol struct {
	Name    string
	Kind    lineproto.ValueKind
	Mixed   bool
	Width   uint8             // bit width of packed string ids (0 = all id 0)
	Present []uint64          // raw bitmap words; nil = dense
	Data    []byte            // XOR floats / zigzag-delta varints / bit-packed ids
	Vals    []lineproto.Value // mixed columns stay raw
}

// Col is one field's value column over a raw run: the values (string ids
// index Measurement.Strs) and the presence bitmap, bit i ↔ row i. A nil
// Present means every row carries a value.
type Col struct {
	Name    string
	Present []uint64
	Values
}

func snapshotName(seg int) string { return fmt.Sprintf("checkpoint-%08d.snap", seg) }

func parseSnapshotName(name string) (int, bool) {
	var idx int
	if n, err := fmt.Sscanf(name, "checkpoint-%08d.snap", &idx); n != 1 || err != nil {
		return 0, false
	}
	if snapshotName(idx) != name {
		return 0, false
	}
	return idx, true
}

// --- encoding ----------------------------------------------------------

func appendSnapshot(dst []byte, s *Snapshot) []byte {
	dst = appendUvarint(dst, uint64(len(s.Measurements)))
	for mi := range s.Measurements {
		m := &s.Measurements[mi]
		dst = appendString(dst, m.Name)
		dst = appendUvarint(dst, uint64(len(m.Fields)))
		for _, f := range m.Fields {
			dst = appendString(dst, f.Name)
			dst = append(dst, byte(f.Kind))
		}
		dst = appendUvarint(dst, uint64(len(m.Strs)))
		for _, v := range m.Strs {
			dst = appendString(dst, v)
		}
		dst = appendUvarint(dst, uint64(len(m.Series)))
		for si := range m.Series {
			dst = appendSeries(dst, &m.Series[si])
		}
	}
	return dst
}

// snapshotSizeHint estimates len(appendSnapshot(nil, s)) from the headers,
// without walking the values: a multi-MiB payload appended to a nil slice
// is copied several times over as the slice doubles, and that copying was
// most of a checkpoint's CPU. Fixed-width parts (float columns, presence
// words, compressed chunks) are counted exactly; a varint column is taken
// at the width of its ends — timestamps arrive at near-constant intervals,
// counters grow — so the hint can fall short, and append then grows the
// buffer as before: only speed depends on it, never the bytes.
func snapshotSizeHint(s *Snapshot) int {
	const perString = binary.MaxVarintLen32 // a length prefix, a count
	size := perString
	for mi := range s.Measurements {
		m := &s.Measurements[mi]
		size += 4*perString + len(m.Name)
		for _, f := range m.Fields {
			size += perString + len(f.Name) + 1
		}
		for _, v := range m.Strs {
			size += perString + len(v)
		}
		for si := range m.Series {
			sr := &m.Series[si]
			size += 2 * perString
			for k, v := range sr.Tags {
				size += 2*perString + len(k) + len(v)
			}
			for ri := range sr.Runs {
				size += runSizeHint(&sr.Runs[ri])
			}
		}
	}
	return size + size/16
}

func runSizeHint(r *Run) int {
	if c := r.Comp; c != nil {
		size := 64 + len(c.Ts)
		for ci := range c.Cols {
			cc := &c.Cols[ci]
			size += 16 + len(cc.Name) + 8*len(cc.Present) + len(cc.Data) + 16*len(cc.Vals)
		}
		return size
	}
	n := len(r.Ts)
	size := 32
	if n > 1 {
		size += n * max(uvarintLen(uint64(r.Ts[1]-r.Ts[0])), uvarintLen(uint64(r.Ts[n-1]-r.Ts[n-2])))
	}
	for ci := range r.Cols {
		c := &r.Cols[ci]
		size += 16 + len(c.Name) + 8*len(c.Present)
		switch arm := c.Arm(); {
		case n == 0:
		case arm == ArmVals:
			size += 16 * n
		case arm == ArmFloats:
			size += 8 * n
		case arm == ArmStrIDs:
			size += n * uvarintLen(uint64(max(c.StrIDs[0], c.StrIDs[n-1])))
		default:
			size += n * max(varintLen(c.Ints[0]), varintLen(c.Ints[n-1]))
		}
	}
	return size
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

func appendSeries(dst []byte, sr *Series) []byte {
	keys := make([]string, 0, len(sr.Tags))
	for k := range sr.Tags {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = appendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = appendString(dst, k)
		dst = appendString(dst, sr.Tags[k])
	}
	dst = appendUvarint(dst, uint64(len(sr.Runs)))
	for ri := range sr.Runs {
		dst = appendRun(dst, &sr.Runs[ri])
	}
	return dst
}

func appendRun(dst []byte, r *Run) []byte {
	if r.Comp != nil {
		dst = append(dst, runKindComp)
		return appendCompRun(dst, r.Comp)
	}
	dst = append(dst, runKindRaw)
	n := len(r.Ts)
	dst = appendUvarint(dst, uint64(n))
	if n > 0 {
		dst = appendFixed64(dst, uint64(r.Ts[0]))
		for i := 1; i < n; i++ {
			dst = appendUvarint(dst, uint64(r.Ts[i]-r.Ts[i-1])) // sorted: non-negative
		}
	}
	dst = appendUvarint(dst, uint64(len(r.Cols)))
	for ci := range r.Cols {
		dst = appendCol(dst, &r.Cols[ci], n)
	}
	return dst
}

func appendCompRun(dst []byte, c *CompRun) []byte {
	dst = appendUvarint(dst, uint64(c.N))
	dst = appendFixed64(dst, uint64(c.MinTS))
	dst = appendFixed64(dst, uint64(c.MaxTS))
	dst = appendUvarint(dst, uint64(c.RawBytes))
	dst = appendBytes(dst, c.Ts)
	dst = appendUvarint(dst, uint64(len(c.Cols)))
	for ci := range c.Cols {
		cc := &c.Cols[ci]
		dst = appendColHeader(dst, cc.Name, cc.Kind, cc.Mixed, cc.Present)
		dst = append(dst, cc.Width)
		dst = appendWords(dst, cc.Present)
		if cc.Mixed {
			dst = appendVals(dst, cc.Vals[:c.N])
		} else {
			dst = appendBytes(dst, cc.Data)
		}
	}
	return dst
}

func appendBytes(dst, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

const (
	colFlagMixed   = 1 << 0
	colFlagPresent = 1 << 1
)

// appendColHeader writes what a raw and a compressed column start with:
// name, kind and the flags byte.
func appendColHeader(dst []byte, name string, kind lineproto.ValueKind, mixed bool, present []uint64) []byte {
	dst = appendString(dst, name)
	flags := byte(0)
	if mixed {
		flags |= colFlagMixed
	}
	if present != nil {
		flags |= colFlagPresent
	}
	return append(dst, byte(kind), flags)
}

func appendWords(dst []byte, words []uint64) []byte {
	for _, w := range words {
		dst = appendFixed64(dst, w)
	}
	return dst
}

func appendVals(dst []byte, vals []lineproto.Value) []byte {
	for _, v := range vals {
		dst = appendValue(dst, v)
	}
	return dst
}

func appendCol(dst []byte, c *Col, n int) []byte {
	dst = appendColHeader(dst, c.Name, c.Kind, c.Mixed, c.Present)
	dst = appendWords(dst, c.Present)
	switch c.Arm() {
	case ArmVals:
		dst = appendVals(dst, c.Vals[:n])
	case ArmFloats:
		for _, f := range c.Floats[:n] {
			dst = appendFixed64(dst, math.Float64bits(f))
		}
	case ArmStrIDs:
		for _, id := range c.StrIDs[:n] {
			dst = appendUvarint(dst, uint64(id))
		}
	default:
		for _, i := range c.Ints[:n] {
			dst = binary.AppendVarint(dst, i)
		}
	}
	return dst
}

// --- decoding ----------------------------------------------------------

func decodeSnapshot(payload []byte) (*Snapshot, error) {
	r := &batchReader{b: payload}
	nm, err := r.count()
	if err != nil {
		return nil, err
	}
	s := &Snapshot{}
	if nm > 0 {
		s.Measurements = make([]Measurement, 0, nm)
	}
	for i := 0; i < nm; i++ {
		m, err := decodeMeasurement(r)
		if err != nil {
			return nil, err
		}
		s.Measurements = append(s.Measurements, m)
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("durable: %d trailing bytes after snapshot", len(r.b))
	}
	return s, nil
}

func decodeMeasurement(r *batchReader) (Measurement, error) {
	var m Measurement
	var err error
	if m.Name, err = r.str(); err != nil {
		return m, err
	}
	nf, err := r.count()
	if err != nil {
		return m, err
	}
	if nf > 0 {
		m.Fields = make([]FieldSchema, 0, nf)
	}
	for i := 0; i < nf; i++ {
		var f FieldSchema
		if f.Name, err = r.str(); err != nil {
			return m, err
		}
		if len(r.b) < 1 {
			return m, errShortBatch
		}
		f.Kind = lineproto.ValueKind(r.b[0])
		r.b = r.b[1:]
		m.Fields = append(m.Fields, f)
	}
	ns, err := r.count()
	if err != nil {
		return m, err
	}
	if ns > 0 {
		m.Strs = make([]string, 0, ns)
	}
	for i := 0; i < ns; i++ {
		v, err := r.str()
		if err != nil {
			return m, err
		}
		m.Strs = append(m.Strs, v)
	}
	nser, err := r.count()
	if err != nil {
		return m, err
	}
	if nser > 0 {
		m.Series = make([]Series, 0, nser)
	}
	for i := 0; i < nser; i++ {
		sr, err := decodeSeries(r)
		if err != nil {
			return m, err
		}
		m.Series = append(m.Series, sr)
	}
	return m, nil
}

func decodeSeries(r *batchReader) (Series, error) {
	var sr Series
	nt, err := r.count()
	if err != nil {
		return sr, err
	}
	if nt > 0 {
		sr.Tags = make(map[string]string, nt)
		for i := 0; i < nt; i++ {
			k, err := r.str()
			if err != nil {
				return sr, err
			}
			v, err := r.str()
			if err != nil {
				return sr, err
			}
			sr.Tags[k] = v
		}
	}
	nr, err := r.count()
	if err != nil {
		return sr, err
	}
	if nr > 0 {
		sr.Runs = make([]Run, 0, nr)
	}
	for i := 0; i < nr; i++ {
		run, err := decodeRun(r)
		if err != nil {
			return sr, err
		}
		sr.Runs = append(sr.Runs, run)
	}
	return sr, nil
}

func decodeRun(r *batchReader) (Run, error) {
	var run Run
	if len(r.b) < 1 {
		return run, errShortBatch
	}
	kind := r.b[0]
	r.b = r.b[1:]
	switch kind {
	case runKindRaw:
	case runKindComp:
		c, err := decodeCompRun(r)
		if err != nil {
			return run, err
		}
		run.Comp = c
		return run, nil
	default:
		return run, fmt.Errorf("durable: unknown run kind %d", kind)
	}
	n64, err := r.uvarint()
	if err != nil {
		return run, err
	}
	if n64 > uint64(len(r.b)) {
		return run, fmt.Errorf("durable: implausible run length %d", n64)
	}
	n := int(n64)
	if n > 0 {
		anchor, err := r.fixed64()
		if err != nil {
			return run, err
		}
		run.Ts = make([]int64, n)
		run.Ts[0] = int64(anchor)
		for i := 1; i < n; i++ {
			d, err := r.uvarint()
			if err != nil {
				return run, err
			}
			run.Ts[i] = run.Ts[i-1] + int64(d)
		}
	}
	nc, err := r.count()
	if err != nil {
		return run, err
	}
	if nc > 0 {
		run.Cols = make([]Col, 0, nc)
	}
	for i := 0; i < nc; i++ {
		c, err := decodeCol(r, n)
		if err != nil {
			return run, err
		}
		run.Cols = append(run.Cols, c)
	}
	return run, nil
}

// colHeader reads what appendColHeader wrote; sparse reports that presence
// words follow.
func (r *batchReader) colHeader() (name string, kind lineproto.ValueKind, mixed, sparse bool, err error) {
	if name, err = r.str(); err != nil {
		return
	}
	if len(r.b) < 2 {
		err = errShortBatch
		return
	}
	kind = lineproto.ValueKind(r.b[0])
	flags := r.b[1]
	r.b = r.b[2:]
	return name, kind, flags&colFlagMixed != 0, flags&colFlagPresent != 0, nil
}

// words reads the presence bitmap of an n-row column.
func (r *batchReader) words(n int) ([]uint64, error) {
	out := make([]uint64, (n+63)/64)
	for i := range out {
		w, err := r.fixed64()
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// vals reads n boxed values, each at least one byte long.
func (r *batchReader) vals(n int) ([]lineproto.Value, error) {
	if n > len(r.b) {
		return nil, errShortBatch
	}
	out := make([]lineproto.Value, n)
	for i := range out {
		var err error
		if out[i], err = r.value(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func decodeCol(r *batchReader, n int) (Col, error) {
	var c Col
	var sparse bool
	var err error
	if c.Name, c.Kind, c.Mixed, sparse, err = r.colHeader(); err != nil {
		return c, err
	}
	if sparse {
		if c.Present, err = r.words(n); err != nil {
			return c, err
		}
	}
	if n == 0 {
		return c, nil
	}
	switch c.Arm() {
	case ArmVals:
		c.Vals, err = r.vals(n)
	case ArmFloats:
		c.Floats = make([]float64, n)
		for i := range c.Floats {
			var bits uint64
			if bits, err = r.fixed64(); err != nil {
				break
			}
			c.Floats[i] = math.Float64frombits(bits)
		}
	case ArmStrIDs:
		c.StrIDs = make([]uint32, n)
		for i := range c.StrIDs {
			var id uint64
			if id, err = r.uvarint(); err != nil {
				break
			}
			c.StrIDs[i] = uint32(id)
		}
	default:
		c.Ints = make([]int64, n)
		for i := range c.Ints {
			if c.Ints[i], err = r.varint(); err != nil {
				break
			}
		}
	}
	return c, err
}

// byteSlice reads a length-prefixed chunk. The returned slice is a copy,
// so the caller may retain it past the payload buffer.
func (r *batchReader) byteSlice() ([]byte, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	b := append([]byte(nil), r.b[:n]...)
	r.b = r.b[n:]
	return b, nil
}

// decodeCompRun reads one compressed run frame. The chunks themselves are
// opaque here, but their row count is sanity-checked against the minimum
// bits each codec spends per row, so a corrupt count that slipped past
// the CRC cannot make recovery allocate wild amounts or hand the query
// path a chunk shorter than its header claims.
func decodeCompRun(r *batchReader) (*CompRun, error) {
	c := &CompRun{}
	n64, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Timestamps cost at least 1 bit/row after the 64-bit anchor, so a row
	// count beyond 8x the remaining payload is structurally impossible.
	if n64 == 0 || n64 > uint64(len(r.b))*8 {
		return nil, fmt.Errorf("durable: implausible compressed run length %d", n64)
	}
	c.N = int(n64)
	min64, err := r.fixed64()
	if err != nil {
		return nil, err
	}
	max64, err := r.fixed64()
	if err != nil {
		return nil, err
	}
	c.MinTS, c.MaxTS = int64(min64), int64(max64)
	if c.MinTS > c.MaxTS {
		return nil, fmt.Errorf("durable: compressed run bounds inverted")
	}
	raw64, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	c.RawBytes = int64(raw64)
	if c.Ts, err = r.byteSlice(); err != nil {
		return nil, err
	}
	if len(c.Ts)*8 < 64+(c.N-1) {
		return nil, fmt.Errorf("durable: timestamp chunk shorter than %d rows", c.N)
	}
	nc, err := r.count()
	if err != nil {
		return nil, err
	}
	if nc > 0 {
		c.Cols = make([]CompCol, 0, nc)
	}
	for i := 0; i < nc; i++ {
		cc, err := decodeCompCol(r, c.N)
		if err != nil {
			return nil, err
		}
		c.Cols = append(c.Cols, cc)
	}
	return c, nil
}

func decodeCompCol(r *batchReader, n int) (CompCol, error) {
	var c CompCol
	var sparse bool
	var err error
	if c.Name, c.Kind, c.Mixed, sparse, err = r.colHeader(); err != nil {
		return c, err
	}
	if len(r.b) < 1 {
		return c, errShortBatch
	}
	c.Width = r.b[0]
	r.b = r.b[1:]
	if sparse {
		if c.Present, err = r.words(n); err != nil {
			return c, err
		}
	}
	if c.Mixed {
		c.Vals, err = r.vals(n)
		return c, err
	}
	if c.Data, err = r.byteSlice(); err != nil {
		return c, err
	}
	// Per-codec minimum chunk sizes for n rows (see tsdb/compress.go):
	// XOR floats spend 64 bits on the first value and >= 1 bit after,
	// varint ints >= 1 byte/row, bit-packed string ids Width bits/row.
	switch ArmOf(c.Kind, false) {
	case ArmFloats:
		if len(c.Data)*8 < 64+(n-1) {
			return c, fmt.Errorf("durable: float chunk shorter than %d rows", n)
		}
	case ArmStrIDs:
		if c.Width > 32 {
			return c, fmt.Errorf("durable: string-id width %d out of range", c.Width)
		}
		if len(c.Data)*8 < int(c.Width)*n {
			return c, fmt.Errorf("durable: string-id chunk shorter than %d rows", n)
		}
	default:
		if len(c.Data) < n {
			return c, fmt.Errorf("durable: int chunk shorter than %d rows", n)
		}
	}
	return c, nil
}

// --- files -------------------------------------------------------------

// WriteSnapshot atomically writes s as the checkpoint replaying from WAL
// segment seg, then removes superseded checkpoint files. All file
// operations go through fs (nil selects the real filesystem). The
// returned error is nil only once the new checkpoint is durably on disk:
// temp file written and fsynced, renamed into place, directory synced. A
// crash anywhere before that last barrier leaves at worst a stray .tmp
// file and the previous checkpoint intact. dir is the one OpenWAL made: a
// checkpoint that finds it gone (DROP DATABASE) fails, it never rebuilds it.
func WriteSnapshot(fs fsys.FS, dir string, seg int, s *Snapshot) error {
	if fs == nil {
		fs = fsys.OS{}
	}
	payload := appendSnapshot(make([]byte, 0, snapshotSizeHint(s)), s)
	final := filepath.Join(dir, snapshotName(seg))
	tmp := final + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write([]byte(snapMagic))
	if err == nil {
		_, err = f.Write(payload)
	}
	if err == nil {
		var trailer [4]byte
		binary.LittleEndian.PutUint32(trailer[:], crc32.ChecksumIEEE(payload))
		_, err = f.Write(trailer[:])
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, final); err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	if err := fs.SyncDir(dir); err != nil {
		return err
	}
	// The new checkpoint is durable; superseded ones and stray temp files
	// only waste space now.
	names, err := fs.ReadDirNames(dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		if idx, ok := parseSnapshotName(name); ok && idx != seg {
			_ = fs.Remove(filepath.Join(dir, name))
		} else if strings.HasSuffix(name, ".snap.tmp") && name != filepath.Base(tmp) {
			_ = fs.Remove(filepath.Join(dir, name))
		}
	}
	return nil
}

// LoadLatestSnapshot loads the newest valid checkpoint in dir through fs
// (nil selects the real filesystem). It returns the snapshot and the WAL
// segment index replay must start from, or (nil, 0, nil) when no usable
// checkpoint exists. Corrupt checkpoint files are skipped in favour of
// older ones — a longer WAL tail still reaches the same state. A file in
// the retired LMSCKP1 format is not corruption and is refused with an
// error instead: the WAL segments it covers are already deleted, so
// skipping it would bring the store up silently missing that data.
func LoadLatestSnapshot(fs fsys.FS, dir string) (*Snapshot, int, error) {
	if fs == nil {
		fs = fsys.OS{}
	}
	names, err := fs.ReadDirNames(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	var idxs []int
	for _, name := range names {
		if idx, ok := parseSnapshotName(name); ok {
			idxs = append(idxs, idx)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(idxs)))
	for _, idx := range idxs {
		data, err := fs.ReadFile(filepath.Join(dir, snapshotName(idx)))
		if err != nil {
			return nil, 0, err
		}
		if len(data) < len(snapMagic)+4 {
			continue
		}
		switch string(data[:len(snapMagic)]) {
		case snapMagic:
		case snapMagicV1:
			return nil, 0, fmt.Errorf("durable: %s is in the retired LMSCKP1 checkpoint format, which this version no longer reads",
				filepath.Join(dir, snapshotName(idx)))
		default:
			continue
		}
		payload := data[len(snapMagic) : len(data)-4]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
			continue
		}
		s, err := decodeSnapshot(payload)
		if err != nil {
			continue
		}
		return s, idx, nil
	}
	return nil, 0, nil
}
