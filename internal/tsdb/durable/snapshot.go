package durable

// Checkpoint files: one immutable, self-contained serialization of a
// database's columnar state (the on-disk analogue of InfluxDB's read-only
// TSM files). The tsdb layer converts its in-memory runs to and from the
// neutral Snapshot structs below; this file owns the bytes.
//
// Layout:
//
//	[8B magic "LMSCKP3\n"][payload][4B CRC32 (IEEE) of payload]
//
// The payload nests measurements → series → runs → columns. Every run is
// a compressed run frame: its header (row count, time bounds) and its
// Gorilla-style chunks verbatim, as the tsdb layer encoded them — the one
// run codec at rest, as InfluxDB's TSM files hold only compressed blocks.
// A chunk's string ids index the measurement's interned table. The file is
// written to a temp name, fsynced and atomically renamed to
//
//	checkpoint-%08d.snap
//
// where the number is the WAL segment recovery must replay from: state in
// segments below it is captured by the checkpoint, so they are deleted
// once the rename lands, as are older checkpoints. Load reads the newest
// checkpoint or fails: a crash can only tear the temp file, so a renamed
// checkpoint that does not check out is media corruption, and no older
// checkpoint with a longer WAL tail is left to fall back to.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/fsys"
	"repro/internal/lineproto"
)

// snapMagic opens every checkpoint file.
const snapMagic = "LMSCKP3\n"

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
	Runs []*CompRun
}

// CompRun is one compressed run: per-column chunk bytes plus the header
// fields needed without decoding (row count, time bounds). It is the tsdb
// layer's resident form of the run as well as the checkpoint's only one;
// the codecs that fill and read the chunks live there (tsdb/compress.go),
// this package frames and CRCs them and never decodes them. Immutable
// once published.
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

// snapshotSizeHint estimates len(appendSnapshot(nil, s)) from the headers:
// a multi-MiB payload appended to a nil slice is copied several times over
// as the slice doubles. A hint that falls short only costs that regrowth,
// never a byte of the payload.
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
				size += runSizeHint(sr.Runs[ri])
			}
		}
	}
	return size + size/16
}

// runSizeHint counts a run frame's chunks and presence words exactly, its
// varint headers at the widths of realistic counts (a row count below 2M,
// a chunk below 2 MiB, a name below 128 bytes) and a boxed mixed value at
// 16 bytes.
func runSizeHint(c *CompRun) int {
	size := 28 + len(c.Ts)
	for ci := range c.Cols {
		cc := &c.Cols[ci]
		size += 7 + len(cc.Name) + 8*len(cc.Present) + len(cc.Data) + 16*len(cc.Vals)
	}
	return size
}

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
	for _, c := range sr.Runs {
		dst = appendCompRun(dst, c)
	}
	return dst
}

// appendCompRun writes one run frame: the header, the timestamp chunk,
// then per column its name, kind, flags and string-id width, the presence
// words of a sparse column, and a mixed column's boxed values or any other
// column's chunk.
func appendCompRun(dst []byte, c *CompRun) []byte {
	dst = appendUvarint(dst, uint64(c.N))
	dst = appendFixed64(dst, uint64(c.MinTS))
	dst = appendFixed64(dst, uint64(c.MaxTS))
	dst = appendUvarint(dst, uint64(c.RawBytes))
	dst = appendBytes(dst, c.Ts)
	dst = appendUvarint(dst, uint64(len(c.Cols)))
	for ci := range c.Cols {
		cc := &c.Cols[ci]
		flags := byte(0)
		if cc.Mixed {
			flags |= colFlagMixed
		}
		if cc.Present != nil {
			flags |= colFlagPresent
		}
		dst = append(appendString(dst, cc.Name), byte(cc.Kind), flags, cc.Width)
		for _, w := range cc.Present {
			dst = appendFixed64(dst, w)
		}
		if !cc.Mixed {
			dst = appendBytes(dst, cc.Data)
			continue
		}
		for _, v := range cc.Vals[:c.N] {
			dst = appendValue(dst, v)
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
		sr.Runs = make([]*CompRun, 0, nr)
	}
	for i := 0; i < nr; i++ {
		c, err := decodeCompRun(r)
		if err != nil {
			return sr, err
		}
		sr.Runs = append(sr.Runs, c)
	}
	return sr, nil
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
	var err error
	if c.Name, err = r.str(); err != nil {
		return c, err
	}
	if len(r.b) < 3 {
		return c, errShortBatch
	}
	c.Kind, c.Mixed, c.Width = lineproto.ValueKind(r.b[0]), r.b[1]&colFlagMixed != 0, r.b[2]
	sparse := r.b[1]&colFlagPresent != 0
	r.b = r.b[3:]
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

// LoadLatestSnapshot loads the newest checkpoint in dir through fs (nil
// selects the real filesystem). It returns the snapshot and the WAL segment
// index replay must start from, or (nil, 0, nil) when dir holds no
// checkpoint. A newest checkpoint that cannot be read — too short, another
// magic (the retired LMSCKP1 and LMSCKP2 among them), a CRC mismatch, a
// payload that does not decode — fails the load with an error naming the
// file and the defect. Nothing valid lies behind it: WriteSnapshot deletes
// every older checkpoint once a new one is durable, and the WAL segments
// the newest one covers are deleted after it, so loading anything else
// would bring the database up silently missing data.
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
	newest := -1
	for _, name := range names {
		if idx, ok := parseSnapshotName(name); ok && idx > newest {
			newest = idx
		}
	}
	if newest < 0 {
		return nil, 0, nil
	}
	path := filepath.Join(dir, snapshotName(newest))
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	s, err := readSnapshot(data)
	if err != nil {
		return nil, 0, fmt.Errorf("durable: checkpoint %s: %w", path, err)
	}
	return s, newest, nil
}

// readSnapshot checks and decodes the bytes of one checkpoint file.
func readSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapMagic)+4 {
		return nil, fmt.Errorf("%d bytes is too short for a checkpoint", len(data))
	}
	if magic := string(data[:len(snapMagic)]); magic != snapMagic {
		return nil, fmt.Errorf("magic %q, this version reads only %q", magic, snapMagic)
	}
	payload := data[len(snapMagic) : len(data)-4]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, errors.New("CRC mismatch")
	}
	s, err := decodeSnapshot(payload)
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	return s, nil
}
