package hdf5

import (
	"errors"
	"fmt"

	"ffis/internal/vfs"
)

// Format constants shared by writer and reader.
const (
	superblockSize = 96
	symEntrySize   = 40 // symbol table entry: name off + header addr + cache + scratch
	ohdrPrefixSize = 16 // v1 object header prefix (12 bytes + 4 alignment)
	msgHeaderSize  = 8  // message type + size + flags + reserved
	undefAddr      = ^uint64(0)

	msgNil         = 0x0000
	msgDataspace   = 0x0001
	msgDatatype    = 0x0003
	msgFillValue   = 0x0005
	msgLayout      = 0x0008
	msgSymbolTable = 0x0011

	layoutClassContiguous = 1
	datatypeClassFloat    = 1
)

// signature is the 8-byte HDF5 file magic.
var signature = [8]byte{0x89, 'H', 'D', 'F', '\r', '\n', 0x1a, '\n'}

var (
	btreeSig = [4]byte{'T', 'R', 'E', 'E'}
	snodSig  = [4]byte{'S', 'N', 'O', 'D'}
	heapSig  = [4]byte{'H', 'E', 'A', 'P'}
)

func align8(n int) int { return (n + 7) &^ 7 }

// DatasetSpec describes one dataset to be written.
type DatasetSpec struct {
	Name   string
	Dims   []uint64
	Values []float64
	// Spec is the on-disk float layout; zero value selects IEEE binary64.
	Spec FloatSpec
}

func (d DatasetSpec) elemCount() (uint64, error) {
	if len(d.Dims) == 0 || len(d.Dims) > 8 {
		return 0, fmt.Errorf("hdf5: dataset %q has %d dimensions (1..8 supported)", d.Name, len(d.Dims))
	}
	n := uint64(1)
	for _, dim := range d.Dims {
		if dim == 0 {
			return 0, fmt.Errorf("hdf5: dataset %q has zero-length dimension", d.Name)
		}
		n *= dim
	}
	return n, nil
}

// The builder's geometry: how much slack the metadata carries. It sizes
// the metadata block at ~2.5 KiB with the B-tree dominating, matching the
// composition the paper reports (B-tree nodes ≈ 72% of metadata, mostly
// empty).
const (
	// btreeK is the group B-tree rank: the node allocates 2K children.
	btreeK = 52
	// leafK is the symbol-table leaf rank: the SNOD allocates 2K entries.
	leafK = 4
	// nilPad is the size of the NIL message reserving space for future
	// metadata in each dataset header.
	nilPad = 160
	// heapSlack is the free space kept at the end of the local heap.
	heapSlack = 24
)

// Builder assembles an HDF5 file image.
type Builder struct {
	datasets []DatasetSpec
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// AddDataset schedules a dataset for writing. Passing a zero-valued Spec
// selects IEEE binary64.
func (b *Builder) AddDataset(ds DatasetSpec) *Builder {
	if ds.Spec == (FloatSpec{}) {
		ds.Spec = IEEE754Double()
	}
	b.datasets = append(b.datasets, ds)
	return b
}

// DatasetInfo records where a dataset landed inside a built image.
type DatasetInfo struct {
	Name       string
	Dims       []uint64
	Spec       FloatSpec
	HeaderOff  int    // object header offset within the metadata block
	DataOffset uint64 // absolute file offset of the raw data (the ARD)
	DataSize   uint64 // raw data size in bytes
}

// FileImage is a fully built HDF5 file: the metadata block (file offset 0),
// the raw data region that follows it, and the per-byte field attribution.
type FileImage struct {
	Meta     []byte
	Data     []byte
	Fields   FieldMap
	Datasets []DatasetInfo
}

// Bytes returns the complete file content.
func (img *FileImage) Bytes() []byte {
	out := make([]byte, 0, len(img.Meta)+len(img.Data))
	out = append(out, img.Meta...)
	out = append(out, img.Data...)
	return out
}

// metaWriter appends bytes to the metadata block while recording field
// attributions.
type metaWriter struct {
	buf []byte
	fm  *FieldMap
}

func (w *metaWriter) off() int { return len(w.buf) }

func (w *metaWriter) bytes(p []byte, name string, class FieldClass) {
	w.fm.Add(w.off(), len(p), name, class)
	w.buf = append(w.buf, p...)
}

func (w *metaWriter) u8(v uint8, name string, class FieldClass) {
	w.bytes([]byte{v}, name, class)
}

func (w *metaWriter) u16(v uint16, name string, class FieldClass) {
	w.bytes([]byte{byte(v), byte(v >> 8)}, name, class)
}

func (w *metaWriter) u32(v uint32, name string, class FieldClass) {
	w.bytes([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}, name, class)
}

func (w *metaWriter) u64(v uint64, name string, class FieldClass) {
	var p [8]byte
	for i := range p {
		p[i] = byte(v >> (8 * uint(i)))
	}
	w.bytes(p[:], name, class)
}

func (w *metaWriter) zeros(n int, name string, class FieldClass) {
	w.bytes(make([]byte, n), name, class)
}

// sectionSizes precomputes every metadata section offset so that forward
// references (addresses) can be written in a single pass.
type sectionSizes struct {
	rootHdrOff int
	btreeOff   int
	btreeSize  int
	heapOff    int
	heapHdr    int
	heapData   int
	snodOff    int
	snodSize   int
	dsHdrOff   []int
	metaSize   int
	nameOffs   []int // heap-relative offset of each dataset name
}

func (b *Builder) layout() (sectionSizes, error) {
	var s sectionSizes
	s.rootHdrOff = superblockSize
	// Root header: prefix + symbol table message.
	rootHdrSize := ohdrPrefixSize + msgHeaderSize + 16
	s.btreeOff = s.rootHdrOff + rootHdrSize
	s.btreeSize = 24 + (2*btreeK+1)*8 + (2*btreeK)*8
	s.heapOff = s.btreeOff + s.btreeSize
	s.heapHdr = 32
	// Heap data: 8 reserved bytes (offset 0 = empty root link name), one
	// NUL-terminated name per dataset padded to 8, then slack.
	heapData := 8
	for _, ds := range b.datasets {
		if ds.Name == "" {
			return s, errors.New("hdf5: dataset name must not be empty")
		}
		s.nameOffs = append(s.nameOffs, heapData)
		heapData += align8(len(ds.Name) + 1)
	}
	heapData += align8(heapSlack)
	s.heapData = heapData
	s.snodOff = s.heapOff + s.heapHdr + s.heapData
	s.snodSize = 8 + 2*leafK*symEntrySize
	cursor := s.snodOff + s.snodSize
	for _, ds := range b.datasets {
		s.dsHdrOff = append(s.dsHdrOff, cursor)
		cursor += b.dsHeaderSize(ds)
	}
	s.metaSize = cursor
	return s, nil
}

func (b *Builder) dsHeaderSize(ds DatasetSpec) int {
	dataspaceBody := align8(8 + len(ds.Dims)*8)
	datatypeBody := align8(8 + 12)
	fillBody := 8
	layoutBody := 24
	return ohdrPrefixSize +
		msgHeaderSize + dataspaceBody +
		msgHeaderSize + datatypeBody +
		msgHeaderSize + fillBody +
		msgHeaderSize + layoutBody +
		msgHeaderSize + nilPad
}

// Build assembles the file image.
func (b *Builder) Build() (*FileImage, error) {
	if len(b.datasets) == 0 {
		return nil, errors.New("hdf5: no datasets to write")
	}
	if 2*leafK < len(b.datasets) {
		return nil, fmt.Errorf("hdf5: %d datasets exceed SNOD capacity %d", len(b.datasets), 2*leafK)
	}
	sec, err := b.layout()
	if err != nil {
		return nil, err
	}

	// Raw data region: datasets in order, 8-aligned.
	var data []byte
	infos := make([]DatasetInfo, len(b.datasets))
	for i, ds := range b.datasets {
		n, err := ds.elemCount()
		if err != nil {
			return nil, err
		}
		if uint64(len(ds.Values)) != n {
			return nil, fmt.Errorf("hdf5: dataset %q: %d values for %d-element dataspace",
				ds.Name, len(ds.Values), n)
		}
		if err := ds.Spec.Validate(); err != nil {
			return nil, err
		}
		for len(data)%8 != 0 {
			data = append(data, 0)
		}
		infos[i] = DatasetInfo{
			Name:       ds.Name,
			Dims:       append([]uint64(nil), ds.Dims...),
			Spec:       ds.Spec,
			HeaderOff:  sec.dsHdrOff[i],
			DataOffset: uint64(sec.metaSize + len(data)),
			DataSize:   n * uint64(ds.Spec.Size),
		}
		data = append(data, ds.Spec.EncodeSlice(ds.Values)...)
	}
	eof := uint64(sec.metaSize + len(data))

	var fm FieldMap
	w := &metaWriter{fm: &fm}
	b.writeSuperblock(w, sec, eof)
	b.writeRootHeader(w, sec)
	b.writeBTree(w, sec)
	b.writeHeap(w, sec)
	b.writeSNOD(w, sec)
	for i, ds := range b.datasets {
		b.writeDatasetHeader(w, ds, infos[i])
	}

	if len(w.buf) != sec.metaSize {
		return nil, fmt.Errorf("hdf5: internal: wrote %d metadata bytes, planned %d", len(w.buf), sec.metaSize)
	}
	if err := fm.Validate(sec.metaSize); err != nil {
		return nil, fmt.Errorf("hdf5: internal: %w", err)
	}
	return &FileImage{Meta: w.buf, Data: data, Fields: fm, Datasets: infos}, nil
}

func (b *Builder) writeSuperblock(w *metaWriter, sec sectionSizes, eof uint64) {
	w.bytes(signature[:], "superblock.signature", ClassSignature)
	w.u8(0, "superblock.versionSuperblock", ClassVersion)
	w.u8(0, "superblock.versionFreeSpace", ClassVersion)
	w.u8(0, "superblock.versionRootSymbolTable", ClassVersion)
	w.u8(0, "superblock.reserved0", ClassSlack)
	w.u8(0, "superblock.versionSharedHeaderMessage", ClassVersion)
	w.u8(8, "superblock.sizeOfOffsets", ClassValue)
	w.u8(8, "superblock.sizeOfLengths", ClassValue)
	w.u8(0, "superblock.reserved1", ClassSlack)
	w.u16(uint16(leafK), "superblock.groupLeafNodeK", ClassValue)
	w.u16(uint16(btreeK), "superblock.groupInternalNodeK", ClassValue)
	// Consistency flags double as the writer's lock marker; the reader
	// rejects a non-zero value, so corrupting them is fatal.
	w.u32(0, "superblock.fileConsistencyFlags", ClassValue)
	w.u64(0, "superblock.baseAddress", ClassValue)
	w.u64(undefAddr, "superblock.freeSpaceAddress", ClassSlack)
	w.u64(eof, "superblock.endOfFileAddress", ClassValue)
	w.u64(undefAddr, "superblock.driverInfoAddress", ClassSlack)
	// Root group symbol table entry.
	w.u64(0, "rootEntry.linkNameOffset", ClassResilient)
	w.u64(uint64(sec.rootHdrOff), "rootEntry.objectHeaderAddress", ClassValue)
	w.u32(1, "rootEntry.cacheType", ClassResilient)
	w.u32(0, "rootEntry.reserved", ClassSlack)
	w.u64(uint64(sec.btreeOff), "rootEntry.scratch.btreeAddress", ClassResilient)
	w.u64(uint64(sec.heapOff), "rootEntry.scratch.heapAddress", ClassResilient)
}

func (b *Builder) writeRootHeader(w *metaWriter, sec sectionSizes) {
	w.u8(1, "rootHeader.version", ClassVersion)
	w.u8(0, "rootHeader.reserved", ClassSlack)
	w.u16(1, "rootHeader.numMessages", ClassValue)
	w.u32(1, "rootHeader.referenceCount", ClassResilient)
	w.u32(uint32(msgHeaderSize+16), "rootHeader.headerSize", ClassValue)
	w.u32(0, "rootHeader.pad", ClassSlack)
	// Symbol table message.
	w.u16(msgSymbolTable, "rootHeader.symbolTable.msgType", ClassValue)
	w.u16(16, "rootHeader.symbolTable.msgSize", ClassValue)
	w.u8(0, "rootHeader.symbolTable.msgFlags", ClassSlack)
	w.zeros(3, "rootHeader.symbolTable.msgReserved", ClassSlack)
	w.u64(uint64(sec.btreeOff), "rootHeader.symbolTable.btreeAddress", ClassValue)
	w.u64(uint64(sec.heapOff), "rootHeader.symbolTable.heapAddress", ClassValue)
}

func (b *Builder) writeBTree(w *metaWriter, sec sectionSizes) {
	w.bytes(btreeSig[:], "btree.signature", ClassSignature)
	w.u8(0, "btree.nodeType", ClassVersion)
	w.u8(0, "btree.nodeLevel", ClassValue)
	w.u16(1, "btree.entriesUsed", ClassValue)
	w.u64(undefAddr, "btree.leftSibling", ClassSlack)
	w.u64(undefAddr, "btree.rightSibling", ClassSlack)
	// One used entry: key0, child0 (SNOD), key1.
	w.u64(0, "btree.key0", ClassResilient)
	w.u64(uint64(sec.snodOff), "btree.child0.snodAddress", ClassValue)
	w.u64(uint64(sec.nameOffs[len(sec.nameOffs)-1]), "btree.key1", ClassResilient)
	// Remaining capacity: (2K+1)-2 keys and 2K-1 children, all unused.
	// This is the partially-full B-tree space the paper identifies as the
	// dominant benign region (≈72% of metadata, ≈10% full).
	slack := sec.btreeSize - (24 + 3*8)
	w.zeros(slack, "btree.unusedEntries", ClassSlack)
}

func (b *Builder) writeHeap(w *metaWriter, sec sectionSizes) {
	w.bytes(heapSig[:], "heap.signature", ClassSignature)
	w.u8(0, "heap.version", ClassVersion)
	w.zeros(3, "heap.reserved", ClassSlack)
	w.u64(uint64(sec.heapData), "heap.dataSegmentSize", ClassValue)
	w.u64(undefAddr, "heap.freeListHead", ClassSlack)
	w.u64(uint64(sec.heapOff+sec.heapHdr), "heap.dataSegmentAddress", ClassValue)
	// Data segment.
	w.zeros(8, "heap.data.rootNameSlot", ClassSlack)
	for i, ds := range b.datasets {
		name := make([]byte, align8(len(ds.Name)+1))
		copy(name, ds.Name)
		w.bytes(name, fmt.Sprintf("heap.data.linkName[%d]=%q", i, ds.Name), ClassValue)
	}
	w.zeros(align8(heapSlack), "heap.data.freeSpace", ClassSlack)
}

func (b *Builder) writeSNOD(w *metaWriter, sec sectionSizes) {
	w.bytes(snodSig[:], "snod.signature", ClassSignature)
	w.u8(1, "snod.version", ClassVersion)
	w.u8(0, "snod.reserved", ClassSlack)
	w.u16(uint16(len(b.datasets)), "snod.numSymbols", ClassValue)
	for i := range b.datasets {
		w.u64(uint64(sec.nameOffs[i]), fmt.Sprintf("snod.entry[%d].linkNameOffset", i), ClassValue)
		w.u64(uint64(sec.dsHdrOff[i]), fmt.Sprintf("snod.entry[%d].objectHeaderAddress", i), ClassValue)
		w.u32(0, fmt.Sprintf("snod.entry[%d].cacheType", i), ClassResilient)
		w.u32(0, fmt.Sprintf("snod.entry[%d].reserved", i), ClassSlack)
		w.zeros(16, fmt.Sprintf("snod.entry[%d].scratch", i), ClassSlack)
	}
	// Unused SNOD capacity (2*leafK entries allocated).
	w.zeros((2*leafK-len(b.datasets))*symEntrySize, "snod.unusedEntries", ClassSlack)
}

func (b *Builder) writeDatasetHeader(w *metaWriter, ds DatasetSpec, info DatasetInfo) {
	p := "dataset[" + ds.Name + "]"
	msgsSize := b.dsHeaderSize(ds) - ohdrPrefixSize
	w.u8(1, p+".objHeader.version", ClassVersion)
	w.u8(0, p+".objHeader.reserved", ClassSlack)
	w.u16(5, p+".objHeader.numMessages", ClassValue)
	w.u32(1, p+".objHeader.referenceCount", ClassResilient)
	w.u32(uint32(msgsSize), p+".objHeader.headerSize", ClassValue)
	w.u32(0, p+".objHeader.pad", ClassSlack)

	// Dataspace message.
	spaceBody := align8(8 + len(ds.Dims)*8)
	w.u16(msgDataspace, p+".dataspace.msgType", ClassValue)
	w.u16(uint16(spaceBody), p+".dataspace.msgSize", ClassValue)
	w.u8(0, p+".dataspace.msgFlags", ClassSlack)
	w.zeros(3, p+".dataspace.msgReserved", ClassSlack)
	w.u8(1, p+".dataspace.version", ClassVersion)
	w.u8(uint8(len(ds.Dims)), p+".dataspace.dimensionality", ClassValue)
	w.u8(0, p+".dataspace.flags", ClassSlack)
	w.zeros(5, p+".dataspace.reserved", ClassSlack)
	for i, d := range ds.Dims {
		w.u64(d, fmt.Sprintf("%s.dataspace.dim[%d]", p, i), ClassValue)
	}
	w.zeros(spaceBody-8-len(ds.Dims)*8, p+".dataspace.pad", ClassSlack)

	// Datatype message: the floating-point property block of Figure 1.
	typeBody := align8(8 + 12)
	w.u16(msgDatatype, p+".datatype.msgType", ClassValue)
	w.u16(uint16(typeBody), p+".datatype.msgSize", ClassValue)
	w.u8(0, p+".datatype.msgFlags", ClassSlack)
	w.zeros(3, p+".datatype.msgReserved", ClassSlack)
	w.u8(1<<4|datatypeClassFloat, p+".datatype.classAndVersion", ClassVersion)
	// Class bit field byte 0: bit 0 byte order (0 = LE), bits 1-3 padding
	// type, bits 4-5 mantissa normalization. Bit 5 is the high bit of the
	// normalization value — the "Bit-5 of Mantissa Normalization" SDC
	// field of Table IV.
	w.u8(uint8(ds.Spec.Norm)<<4, p+".datatype.bitField0.mantissaNormalization", ClassSDCProne)
	w.u8(ds.Spec.SignLocation, p+".datatype.bitField1.signLocation", ClassValue)
	w.u8(0, p+".datatype.bitField2", ClassSlack)
	w.u32(ds.Spec.Size, p+".datatype.size", ClassValue)
	w.u16(ds.Spec.BitOffset, p+".datatype.float.bitOffset", ClassResilient)
	w.u16(ds.Spec.BitPrecision, p+".datatype.float.bitPrecision", ClassResilient)
	w.u8(ds.Spec.ExpLocation, p+".datatype.float.exponentLocation", ClassSDCProne)
	w.u8(ds.Spec.ExpSize, p+".datatype.float.exponentSize", ClassValue)
	w.u8(ds.Spec.MantLocation, p+".datatype.float.mantissaLocation", ClassSDCProne)
	w.u8(ds.Spec.MantSize, p+".datatype.float.mantissaSize", ClassSDCProne)
	w.u32(ds.Spec.ExpBias, p+".datatype.float.exponentBias", ClassSDCProne)
	w.zeros(typeBody-20, p+".datatype.pad", ClassSlack)

	// Fill value message (v2, undefined value).
	w.u16(msgFillValue, p+".fillValue.msgType", ClassValue)
	w.u16(8, p+".fillValue.msgSize", ClassValue)
	w.u8(0, p+".fillValue.msgFlags", ClassSlack)
	w.zeros(3, p+".fillValue.msgReserved", ClassSlack)
	w.u8(2, p+".fillValue.version", ClassVersion)
	w.u8(1, p+".fillValue.spaceAllocTime", ClassResilient)
	w.u8(0, p+".fillValue.writeTime", ClassResilient)
	w.u8(0, p+".fillValue.defined", ClassResilient)
	w.zeros(4, p+".fillValue.pad", ClassSlack)

	// Data layout message (v3, contiguous storage property: Figure 1's
	// SIZE plus the Address of Raw Data).
	w.u16(msgLayout, p+".layout.msgType", ClassValue)
	w.u16(24, p+".layout.msgSize", ClassValue)
	w.u8(0, p+".layout.msgFlags", ClassSlack)
	w.zeros(3, p+".layout.msgReserved", ClassSlack)
	w.u8(3, p+".layout.version", ClassVersion)
	w.u8(layoutClassContiguous, p+".layout.class", ClassVersion)
	w.zeros(6, p+".layout.reserved", ClassSlack)
	w.u64(info.DataOffset, p+".layout.addressOfRawData", ClassSDCProne)
	w.u64(info.DataSize, p+".layout.contiguousStorage.size", ClassResilient)

	// NIL message: space reserved for future metadata (benign).
	w.u16(msgNil, p+".nil.msgType", ClassValue)
	w.u16(uint16(nilPad), p+".nil.msgSize", ClassValue)
	w.u8(0, p+".nil.msgFlags", ClassSlack)
	w.zeros(3, p+".nil.msgReserved", ClassSlack)
	w.zeros(nilPad, p+".nil.reservedSpace", ClassSlack)
}

// consistencyFlagsOff is the superblock offset of the file consistency
// flags, used as the write-lock marker during WriteTo.
const consistencyFlagsOff = 20

// WriteTo persists the image through the vfs layer using the I/O sequence
// the paper describes for the HDF5 library (Section IV-D): "the HDF5
// library first locks the file ..., then performs multiple writes to store
// the raw data; after that, it packs all metadata and writes them to the
// file and unlocks the file for later access". Concretely: the raw data is
// flushed in device-block-sized writes, the packed metadata block follows
// as the penultimate write (with the consistency flags still marking the
// file locked), and the final small write clears the lock flag. Dropping
// that last write therefore leaves a file the library refuses to open —
// and fault campaigns rely on this ordering to target the metadata write.
func (img *FileImage) WriteTo(fs vfs.FS, path string) (err error) {
	f, err := fs.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()

	const chunk = 4096
	base := int64(len(img.Meta))
	for off := 0; off < len(img.Data); off += chunk {
		end := off + chunk
		if end > len(img.Data) {
			end = len(img.Data)
		}
		if _, err := f.WriteAt(img.Data[off:end], base+int64(off)); err != nil {
			return fmt.Errorf("hdf5: data write: %w", err)
		}
	}
	// Penultimate write: the packed metadata block, still carrying the
	// "locked" consistency flag.
	locked := append([]byte(nil), img.Meta...)
	locked[consistencyFlagsOff] = 1
	if _, err := f.WriteAt(locked, 0); err != nil {
		return fmt.Errorf("hdf5: metadata write: %w", err)
	}
	// Final write: clear the lock flag.
	if _, err := f.WriteAt(img.Meta[consistencyFlagsOff:consistencyFlagsOff+4], consistencyFlagsOff); err != nil {
		return fmt.Errorf("hdf5: unlock write: %w", err)
	}
	return f.Sync()
}
