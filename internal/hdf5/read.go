package hdf5

import (
	"bytes"
	"fmt"
)

// FormatError is returned when the reader rejects a file; it corresponds to
// the "exceptions thrown by the HDF5 library" that classify as crash in the
// paper's campaigns.
type FormatError struct {
	Field string // which structure failed validation
	Msg   string
}

func (e *FormatError) Error() string {
	return "hdf5: invalid " + e.Field + ": " + e.Msg
}

func formatErrf(field, format string, args ...any) error {
	return &FormatError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// FieldOffsets records the absolute file offsets of the correctable
// metadata fields of a dataset, enabling the in-place repair methodology of
// Section V-A.
type FieldOffsets struct {
	ClassBitField0 int // mantissa normalization byte
	ExpLocation    int
	ExpSize        int
	MantLocation   int
	MantSize       int
	ExpBias        int // 4 bytes
	ARD            int // 8 bytes (layout message address)
}

// Dataset is the parsed view of one dataset.
type Dataset struct {
	Name       string
	Dims       []uint64
	Spec       FloatSpec
	DataOffset uint64 // Address of Raw Data
	LayoutSize uint64 // contiguous storage size from the layout message
	// Offsets locates the repairable fields inside the file image.
	Offsets FieldOffsets
}

// ElemCount returns the number of elements implied by the dataspace.
func (d *Dataset) ElemCount() (uint64, error) {
	if len(d.Dims) == 0 {
		return 0, formatErrf("dataspace", "dataset %q has no dimensions", d.Name)
	}
	n := uint64(1)
	for _, dim := range d.Dims {
		if dim == 0 {
			return 0, formatErrf("dataspace", "zero-length dimension in %q", d.Name)
		}
		// Reject counts that cannot possibly fit in memory — the library
		// raises an allocation failure here.
		if dim > 1<<40 || n > (1<<40)/dim {
			return 0, formatErrf("dataspace", "implausible element count in %q", d.Name)
		}
		n *= dim
	}
	return n, nil
}

// File is a parsed HDF5 file.
type File struct {
	EOFAddress uint64
	Datasets   []*Dataset
	// MetadataEnd is the end of the highest parsed metadata structure.
	// Files written by this library place raw data immediately after the
	// metadata, so the first dataset's Address of Raw Data must equal
	// this value — the invariant behind the ARD auto-correction.
	MetadataEnd uint64

	raw []byte
}

// Dataset returns the dataset with the given link name.
func (f *File) Dataset(name string) (*Dataset, error) {
	for _, d := range f.Datasets {
		if d.Name == name {
			return d, nil
		}
	}
	return nil, formatErrf("group", "dataset %q not found", name)
}

// ReadValues decodes the dataset's raw data according to its datatype.
//
// Tolerance follows the library behaviour the paper documents: a layout
// size LARGER than the dataspace requires is accepted (benign), a smaller
// one is rejected (crash), and a corrupted Address of Raw Data is honoured
// as long as it stays inside the file — silently shifting the data
// (the Table IV ARD SDC).
func (f *File) ReadValues(d *Dataset) ([]float64, error) { return f.ReadValuesInto(d, nil) }

// ReadValuesInto is ReadValues decoding into dst's storage when its
// capacity suffices, with the same checks and errors.
func (f *File) ReadValuesInto(d *Dataset, dst []float64) ([]float64, error) {
	n, err := d.ElemCount()
	if err != nil {
		return nil, err
	}
	need := n * uint64(d.Spec.Size)
	if d.LayoutSize < need {
		return nil, formatErrf("layout.size",
			"storage size %d smaller than dataspace requires (%d)", d.LayoutSize, need)
	}
	if d.DataOffset > uint64(len(f.raw)) || d.DataOffset+need > uint64(len(f.raw)) {
		return nil, formatErrf("layout.addressOfRawData",
			"raw data [%d,%d) outside file of %d bytes", d.DataOffset, d.DataOffset+need, len(f.raw))
	}
	return d.Spec.DecodeInto(dst, f.raw[d.DataOffset:d.DataOffset+need], int(n))
}

// parser walks the metadata with bounds checking; every violation becomes a
// FormatError (crash class).
type parser struct {
	raw       []byte
	maxExtent uint64 // highest metadata byte touched
}

func (p *parser) slice(off, n uint64, what string) ([]byte, error) {
	if off > uint64(len(p.raw)) || n > uint64(len(p.raw))-off {
		return nil, formatErrf(what, "range [%d,%d) outside file of %d bytes", off, off+n, len(p.raw))
	}
	if off+n > p.maxExtent {
		p.maxExtent = off + n
	}
	return p.raw[off : off+n], nil
}

func u16le(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }
func u32le(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func u64le(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * uint(i))
	}
	return v
}

// Parse validates and decodes a complete HDF5 file image.
func Parse(raw []byte) (*File, error) {
	p := &parser{raw: raw}
	sb, err := p.slice(0, superblockSize, "superblock")
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(sb[:8], signature[:]) {
		return nil, formatErrf("superblock.signature", "bad magic % x", sb[:8])
	}
	if sb[8] != 0 {
		return nil, formatErrf("superblock.versionSuperblock", "unsupported version %d", sb[8])
	}
	if sb[9] != 0 || sb[10] != 0 || sb[12] != 0 {
		return nil, formatErrf("superblock.version", "unsupported sub-version %d/%d/%d", sb[9], sb[10], sb[12])
	}
	if sb[13] != 8 || sb[14] != 8 {
		return nil, formatErrf("superblock.sizes", "offsets/lengths must be 8 bytes, got %d/%d", sb[13], sb[14])
	}
	leafK := u16le(sb[16:18])
	internalK := u16le(sb[18:20])
	if leafK == 0 || internalK == 0 {
		return nil, formatErrf("superblock.k", "zero B-tree rank")
	}
	if flags := u32le(sb[20:24]); flags != 0 {
		return nil, formatErrf("superblock.fileConsistencyFlags",
			"file marked in-write (flags %#x): writer never unlocked it", flags)
	}
	if base := u64le(sb[24:32]); base != 0 {
		return nil, formatErrf("superblock.baseAddress", "non-zero base address %d", base)
	}
	eof := u64le(sb[40:48])
	if eof != uint64(len(raw)) {
		return nil, formatErrf("superblock.endOfFileAddress",
			"EOF address %d does not match file size %d (truncated or corrupt file)", eof, len(raw))
	}

	// Root symbol table entry at offset 56.
	rootHdrAddr := u64le(sb[64:72])
	btreeAddr, heapAddr, err := p.parseSymbolTableHeader(rootHdrAddr)
	if err != nil {
		return nil, err
	}

	heapDataAddr, heapDataSize, err := p.parseHeap(heapAddr)
	if err != nil {
		return nil, err
	}

	snodAddrs, err := p.parseBTree(btreeAddr, internalK)
	if err != nil {
		return nil, err
	}

	f := &File{EOFAddress: eof, raw: raw}
	defer func() { f.MetadataEnd = p.maxExtent }()
	for _, snodAddr := range snodAddrs {
		entries, err := p.parseSNOD(snodAddr, leafK)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			name, err := p.heapString(heapDataAddr, heapDataSize, e.nameOff)
			if err != nil {
				return nil, err
			}
			ds, err := p.parseDatasetHeader(e.headerAddr, name)
			if err != nil {
				return nil, err
			}
			f.Datasets = append(f.Datasets, ds)
		}
	}
	return f, nil
}

// parseSymbolTableHeader parses a group object header and returns the
// B-tree and heap addresses from its symbol table message.
func (p *parser) parseSymbolTableHeader(addr uint64) (btree, heap uint64, err error) {
	hdr, err := p.slice(addr, ohdrPrefixSize, "rootHeader")
	if err != nil {
		return 0, 0, err
	}
	if hdr[0] != 1 {
		return 0, 0, formatErrf("rootHeader.version", "unsupported object header version %d", hdr[0])
	}
	numMsgs := u16le(hdr[2:4])
	hdrSize := u32le(hdr[8:12])
	msgs, err := p.parseMessages(addr+ohdrPrefixSize, uint64(hdrSize), numMsgs, "rootHeader")
	if err != nil {
		return 0, 0, err
	}
	for _, m := range msgs {
		if m.typ == msgSymbolTable {
			if len(m.body) < 16 {
				return 0, 0, formatErrf("rootHeader.symbolTable", "short message (%d bytes)", len(m.body))
			}
			return u64le(m.body[0:8]), u64le(m.body[8:16]), nil
		}
	}
	return 0, 0, formatErrf("rootHeader", "no symbol table message in group header")
}

type message struct {
	typ     uint16
	body    []byte
	bodyOff uint64 // absolute file offset of the message body
}

// parseMessages walks a v1 object header message block.
func (p *parser) parseMessages(addr, size uint64, count uint16, what string) ([]message, error) {
	block, err := p.slice(addr, size, what+".messages")
	if err != nil {
		return nil, err
	}
	var out []message
	off := 0
	for i := 0; i < int(count); i++ {
		if off+msgHeaderSize > len(block) {
			return nil, formatErrf(what+".numMessages", "message %d exceeds header block", i)
		}
		typ := u16le(block[off : off+2])
		sz := int(u16le(block[off+2 : off+4]))
		off += msgHeaderSize
		if off+sz > len(block) {
			return nil, formatErrf(what+".msgSize", "message %d body (%d bytes) exceeds header block", i, sz)
		}
		switch typ {
		case msgNil, msgDataspace, msgDatatype, msgFillValue, msgLayout, msgSymbolTable:
			out = append(out, message{typ: typ, body: block[off : off+sz], bodyOff: addr + uint64(off)})
		default:
			// The library rejects unknown message types that are not
			// flagged shareable/ignorable — corrupting a msgType byte
			// crashes the read.
			return nil, formatErrf(what+".msgType", "unknown header message type %#04x", typ)
		}
		off += sz
	}
	return out, nil
}

// parseHeap validates a local heap and returns its data segment location.
func (p *parser) parseHeap(addr uint64) (dataAddr, dataSize uint64, err error) {
	h, err := p.slice(addr, 32, "heap")
	if err != nil {
		return 0, 0, err
	}
	if !bytes.Equal(h[:4], heapSig[:]) {
		return 0, 0, formatErrf("heap.signature", "bad magic % x", h[:4])
	}
	if h[4] != 0 {
		return 0, 0, formatErrf("heap.version", "unsupported version %d", h[4])
	}
	dataSize = u64le(h[8:16])
	dataAddr = u64le(h[24:32])
	if _, err := p.slice(dataAddr, dataSize, "heap.dataSegment"); err != nil {
		return 0, 0, err
	}
	return dataAddr, dataSize, nil
}

// heapString extracts the NUL-terminated string at heap offset off.
func (p *parser) heapString(dataAddr, dataSize, off uint64) (string, error) {
	if off >= dataSize {
		return "", formatErrf("heap.linkNameOffset", "offset %d outside data segment of %d", off, dataSize)
	}
	seg, err := p.slice(dataAddr+off, dataSize-off, "heap.linkName")
	if err != nil {
		return "", err
	}
	i := bytes.IndexByte(seg, 0)
	if i < 0 {
		return "", formatErrf("heap.linkName", "unterminated string at offset %d", off)
	}
	return string(seg[:i]), nil
}

// parseBTree walks a v1 group B-tree node and returns the child SNOD
// addresses. Only leaf-level (level 0) nodes are produced by the writer.
func (p *parser) parseBTree(addr uint64, k uint16) ([]uint64, error) {
	nodeSize := uint64(24 + (2*int(k)+1)*8 + 2*int(k)*8)
	n, err := p.slice(addr, nodeSize, "btree")
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(n[:4], btreeSig[:]) {
		return nil, formatErrf("btree.signature", "bad magic % x", n[:4])
	}
	if n[4] != 0 {
		return nil, formatErrf("btree.nodeType", "node type %d is not a group node", n[4])
	}
	if n[5] != 0 {
		return nil, formatErrf("btree.nodeLevel", "internal nodes unsupported (level %d)", n[5])
	}
	used := u16le(n[6:8])
	if int(used) > 2*int(k) {
		return nil, formatErrf("btree.entriesUsed", "%d entries exceed capacity %d", used, 2*k)
	}
	var out []uint64
	// Entries alternate key/child starting at offset 24.
	for i := 0; i < int(used); i++ {
		childOff := 24 + 8 + i*16 // skip key_i
		out = append(out, u64le(n[childOff:childOff+8]))
	}
	return out, nil
}

type snodEntry struct {
	nameOff    uint64
	headerAddr uint64
}

// parseSNOD validates a symbol table node and returns its entries.
func (p *parser) parseSNOD(addr uint64, leafK uint16) ([]snodEntry, error) {
	size := uint64(8 + 2*int(leafK)*symEntrySize)
	n, err := p.slice(addr, size, "snod")
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(n[:4], snodSig[:]) {
		return nil, formatErrf("snod.signature", "bad magic % x", n[:4])
	}
	if n[4] != 1 {
		return nil, formatErrf("snod.version", "unsupported version %d", n[4])
	}
	numSyms := u16le(n[6:8])
	if int(numSyms) > 2*int(leafK) {
		return nil, formatErrf("snod.numSymbols", "%d symbols exceed capacity %d", numSyms, 2*leafK)
	}
	var out []snodEntry
	for i := 0; i < int(numSyms); i++ {
		base := 8 + i*symEntrySize
		out = append(out, snodEntry{
			nameOff:    u64le(n[base : base+8]),
			headerAddr: u64le(n[base+8 : base+16]),
		})
	}
	return out, nil
}

// parseDatasetHeader decodes a dataset object header into a Dataset.
func (p *parser) parseDatasetHeader(addr uint64, name string) (*Dataset, error) {
	what := "dataset[" + name + "]"
	hdr, err := p.slice(addr, ohdrPrefixSize, what+".objHeader")
	if err != nil {
		return nil, err
	}
	if hdr[0] != 1 {
		return nil, formatErrf(what+".objHeader.version", "unsupported version %d", hdr[0])
	}
	numMsgs := u16le(hdr[2:4])
	hdrSize := u32le(hdr[8:12])
	msgs, err := p.parseMessages(addr+ohdrPrefixSize, uint64(hdrSize), numMsgs, what)
	if err != nil {
		return nil, err
	}

	ds := &Dataset{Name: name}
	var haveSpace, haveType, haveLayout bool
	for _, m := range msgs {
		switch m.typ {
		case msgDataspace:
			if err := parseDataspace(m.body, ds, what); err != nil {
				return nil, err
			}
			haveSpace = true
		case msgDatatype:
			if err := parseDatatype(m.body, ds, what); err != nil {
				return nil, err
			}
			base := int(m.bodyOff)
			ds.Offsets.ClassBitField0 = base + 1
			ds.Offsets.ExpLocation = base + 12
			ds.Offsets.ExpSize = base + 13
			ds.Offsets.MantLocation = base + 14
			ds.Offsets.MantSize = base + 15
			ds.Offsets.ExpBias = base + 16
			haveType = true
		case msgLayout:
			if err := parseLayout(m.body, ds, what); err != nil {
				return nil, err
			}
			ds.Offsets.ARD = int(m.bodyOff) + 8
			haveLayout = true
		case msgFillValue:
			if len(m.body) < 1 || m.body[0] == 0 || m.body[0] > 3 {
				return nil, formatErrf(what+".fillValue.version", "unsupported fill value message")
			}
		}
	}
	if !haveSpace || !haveType || !haveLayout {
		return nil, formatErrf(what, "incomplete dataset header (space=%v type=%v layout=%v)",
			haveSpace, haveType, haveLayout)
	}
	return ds, nil
}

func parseDataspace(body []byte, ds *Dataset, what string) error {
	if len(body) < 8 {
		return formatErrf(what+".dataspace", "short message")
	}
	if body[0] != 1 {
		return formatErrf(what+".dataspace.version", "unsupported version %d", body[0])
	}
	ndims := int(body[1])
	if ndims == 0 || ndims > 8 {
		return formatErrf(what+".dataspace.dimensionality", "%d dimensions unsupported", ndims)
	}
	if len(body) < 8+ndims*8 {
		return formatErrf(what+".dataspace", "message too short for %d dimensions", ndims)
	}
	for i := 0; i < ndims; i++ {
		ds.Dims = append(ds.Dims, u64le(body[8+i*8:16+i*8]))
	}
	return nil
}

func parseDatatype(body []byte, ds *Dataset, what string) error {
	if len(body) < 20 {
		return formatErrf(what+".datatype", "short message")
	}
	classAndVersion := body[0]
	version := classAndVersion >> 4
	class := classAndVersion & 0x0F
	if version == 0 || version > 3 {
		return formatErrf(what+".datatype.version", "unsupported datatype version %d", version)
	}
	if class != datatypeClassFloat {
		return formatErrf(what+".datatype.class", "class %d is not floating-point", class)
	}
	norm := Normalization(body[1] >> 4 & 0x3)
	spec := FloatSpec{
		Size:         u32le(body[4:8]),
		BitOffset:    u16le(body[8:10]),
		BitPrecision: u16le(body[10:12]),
		ExpLocation:  body[12],
		ExpSize:      body[13],
		MantLocation: body[14],
		MantSize:     body[15],
		ExpBias:      u32le(body[16:20]),
		SignLocation: body[2], // class bit field byte 1: sign location
		Norm:         norm,
	}
	if err := spec.Validate(); err != nil {
		return formatErrf(what+".datatype", "%v", err)
	}
	ds.Spec = spec
	return nil
}

func parseLayout(body []byte, ds *Dataset, what string) error {
	if len(body) < 24 {
		return formatErrf(what+".layout", "short message")
	}
	if body[0] != 3 {
		return formatErrf(what+".layout.version", "unsupported layout version %d", body[0])
	}
	if body[1] != layoutClassContiguous {
		return formatErrf(what+".layout.class", "layout class %d unsupported", body[1])
	}
	ds.DataOffset = u64le(body[8:16])
	ds.LayoutSize = u64le(body[16:24])
	return nil
}
