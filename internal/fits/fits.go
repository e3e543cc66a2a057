// Package fits implements the subset of the Flexible Image Transport System
// (FITS) format the Montage proxy pipeline uses: single-HDU files with
// 80-character header cards in 2,880-byte blocks and big-endian float64
// (BITPIX = -64) image data, written through the vfs layer in
// 2,880-byte-block writes so that storage faults land on realistic
// device-write boundaries.
//
// Write streams an image through one block buffer with the write calls and
// bytes of a byte-at-a-time encoder, which TestEncodeMatchesReferenceEncoder
// keeps as its reference. Read and Decode fill a caller-owned *Image,
// reusing its pixels, and Read its raw bytes: the package keeps no buffers.
package fits

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"ffis/internal/vfs"
)

// BlockSize is the FITS logical record length.
const BlockSize = 2880

const cardLen = 80

// Image is a 2-D float64 image with the world-coordinate offset of its
// (0,0) pixel — the minimal WCS the mosaic pipeline needs.
type Image struct {
	Width, Height int
	// CRVAL1/CRVAL2: sky coordinates of pixel (0,0); fractional values
	// mean the tile grid is offset from the mosaic grid and reprojection
	// must resample.
	CRVAL1, CRVAL2 float64
	Data           []float64 // row-major, len = Width*Height

	raw []byte // file bytes of the last Read into this image
}

// New allocates a zero image.
func New(w, h int) *Image {
	return &Image{Width: w, Height: h, Data: make([]float64, w*h)}
}

// Set stores the pixel at (x, y).
func (im *Image) Set(x, y int, v float64) { im.Data[y*im.Width+x] = v }

// Bilinear samples the image at fractional coordinates with bilinear
// interpolation; the boolean is false outside the valid domain.
func (im *Image) Bilinear(x, y float64) (float64, bool) {
	if x < 0 || y < 0 || x > float64(im.Width-1) || y > float64(im.Height-1) {
		return 0, false
	}
	x0, y0 := int(x), int(y)
	x1, y1 := x0+1, y0+1
	if x1 >= im.Width {
		x1 = x0
	}
	if y1 >= im.Height {
		y1 = y0
	}
	fx, fy := x-float64(x0), y-float64(y0)
	r0, r1 := im.Data[y0*im.Width:], im.Data[y1*im.Width:]
	v00 := r0[x0]
	v10 := r0[x1]
	v01 := r1[x0]
	v11 := r1[x1]
	return v00*(1-fx)*(1-fy) + v10*fx*(1-fy) + v01*(1-fx)*fy + v11*fx*fy, true
}

// Reset resizes the image to w×h in place and zeroes every pixel and both
// CRVALs, reusing the pixel buffer when its capacity allows.
func (im *Image) Reset(w, h int) {
	im.resize(w, h)
	clear(im.Data)
	im.CRVAL1, im.CRVAL2 = 0, 0
}

// resize sets the dimensions and the pixel count, leaving pixel values
// unspecified.
func (im *Image) resize(w, h int) {
	im.Width, im.Height = w, h
	if n := w * h; cap(im.Data) >= n {
		im.Data = im.Data[:n]
	} else {
		im.Data = make([]float64, n)
	}
}

// FormatError reports a malformed FITS stream (the Montage crash class).
type FormatError struct{ Msg string }

func (e *FormatError) Error() string { return "fits: " + e.Msg }

// Decode parses a FITS byte stream written by Write (or corrupted en
// route) into im, reusing its pixel buffer. Violations return *FormatError
// and leave im's header fields and pixels unchanged.
func (im *Image) Decode(raw []byte) error {
	hd, blocks, err := parseHeader(raw)
	if err != nil {
		return err
	}
	need := blocks*BlockSize + hd.Width*hd.Height*8
	if len(raw) < need {
		return &FormatError{Msg: fmt.Sprintf("data truncated: need %d bytes, have %d", need, len(raw))}
	}
	im.resize(hd.Width, hd.Height)
	im.CRVAL1, im.CRVAL2 = hd.CRVAL1, hd.CRVAL2
	// Four pixels a step, so that one length check covers four reads.
	px, data := im.Data, raw[blocks*BlockSize:need]
	for len(px) >= 4 && len(data) >= 32 {
		px[0] = math.Float64frombits(binary.BigEndian.Uint64(data))
		px[1] = math.Float64frombits(binary.BigEndian.Uint64(data[8:]))
		px[2] = math.Float64frombits(binary.BigEndian.Uint64(data[16:]))
		px[3] = math.Float64frombits(binary.BigEndian.Uint64(data[24:]))
		px, data = px[4:], data[32:]
	}
	for i := range px {
		px[i] = math.Float64frombits(binary.BigEndian.Uint64(data))
		data = data[8:]
	}
	return nil
}

// headerKeys are the header keys parseHeader reads; it ignores the rest.
var headerKeys = [...]string{"SIMPLE", "BITPIX", "NAXIS", "NAXIS1", "NAXIS2", "CRVAL1", "CRVAL2"}

// parseHeader parses the header blocks at the start of raw into a
// pixel-less image and counts them. It scans the cards in place and keeps
// the last value of each of headerKeys; an absent key reads as empty.
func parseHeader(raw []byte) (hd Image, blocks int, err error) {
	if len(raw) < BlockSize {
		return hd, 0, &FormatError{Msg: "file shorter than one header block"}
	}
	var vals [len(headerKeys)][]byte
	for end := false; !end; blocks++ {
		if (blocks+1)*BlockSize > len(raw) {
			return hd, 0, &FormatError{Msg: "header END card missing"}
		}
		for cards := raw[blocks*BlockSize : (blocks+1)*BlockSize]; len(cards) > 0; cards = cards[cardLen:] {
			card := cards[:cardLen]
			key := bytes.TrimSpace(card[:8])
			if string(key) == "END" {
				end = true
				break
			}
			if len(key) == 0 {
				continue
			}
			if card[8] != '=' {
				return hd, 0, &FormatError{Msg: "malformed card: " + string(bytes.TrimSpace(card))}
			}
			for k, name := range headerKeys {
				if string(key) == name {
					vals[k] = bytes.TrimSpace(card[10:])
					break
				}
			}
		}
	}
	switch {
	case string(vals[0]) != "T":
		return hd, 0, &FormatError{Msg: "not a SIMPLE FITS file"}
	case string(vals[1]) != "-64":
		return hd, 0, &FormatError{Msg: "unsupported BITPIX " + string(vals[1])}
	case string(vals[2]) != "2":
		return hd, 0, &FormatError{Msg: "unsupported NAXIS " + string(vals[2])}
	}
	if hd.Width, err = strconv.Atoi(string(vals[3])); err != nil || hd.Width <= 0 || hd.Width > 1<<16 {
		return hd, 0, &FormatError{Msg: "bad NAXIS1 " + string(vals[3])}
	}
	if hd.Height, err = strconv.Atoi(string(vals[4])); err != nil || hd.Height <= 0 || hd.Height > 1<<16 {
		return hd, 0, &FormatError{Msg: "bad NAXIS2 " + string(vals[4])}
	}
	if hd.CRVAL1, err = strconv.ParseFloat(string(vals[5]), 64); err != nil {
		return hd, 0, &FormatError{Msg: "bad CRVAL1 " + string(vals[5])}
	}
	if hd.CRVAL2, err = strconv.ParseFloat(string(vals[6]), 64); err != nil {
		return hd, 0, &FormatError{Msg: "bad CRVAL2 " + string(vals[6])}
	}
	return hd, blocks, nil
}

// putHeader fills block with the first block of the file Write makes of
// im: per card, the key left-justified in eight columns, "= ", and the
// value right-justified in twenty, cut at column 80; spaces elsewhere.
func putHeader(block []byte, im *Image) {
	block[0] = ' '
	for n := 1; n < len(block); n *= 2 { // spaces, doubling by copy
		copy(block[n:], block[:n])
	}
	for i, kv := range [...][2]string{{"SIMPLE", "T"}, {"BITPIX", "-64"}, {"NAXIS", "2"},
		{"NAXIS1", strconv.Itoa(im.Width)}, {"NAXIS2", strconv.Itoa(im.Height)},
		{"CRVAL1", strconv.FormatFloat(im.CRVAL1, 'f', 6, 64)},
		{"CRVAL2", strconv.FormatFloat(im.CRVAL2, 'f', 6, 64)}} {
		c := block[i*cardLen : (i+1)*cardLen]
		copy(c, kv[0])
		copy(c[8:], "= ")
		copy(c[10+max(0, 20-len(kv[1])):], kv[1])
	}
	copy(block[7*cardLen:], "END")
}

// StoreHeader gives im the header Read returns for the file Write makes
// of im, or returns Read's *FormatError: Write's six-decimal, 80-column
// CRVAL cards can move a CRVAL, while pixels keep their exact bits.
func (im *Image) StoreHeader() error {
	var block [BlockSize]byte
	putHeader(block[:], im)
	hd, _, err := parseHeader(block[:])
	if err == nil {
		im.CRVAL1, im.CRVAL2 = hd.CRVAL1, hd.CRVAL2 // NAXIS survives whenever accepted
	}
	return err
}

// Write persists the image at path in BlockSize-sized writes — the
// realistic write pattern fault campaigns interpose on. It streams through
// one block buffer: the header cards space-padded to a block, then the
// big-endian pixels, the last block zero-padded. It returns the first error
// of the writes, Sync and Close.
func Write(fs vfs.FS, path string, im *Image) (err error) {
	f, err := fs.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	block := make([]byte, BlockSize)
	putHeader(block, im)
	if _, err := f.Write(block); err != nil {
		return err
	}
	for data := im.Data; len(data) > 0; {
		n := min(len(data), BlockSize/8)
		px, out := data[:n], block
		for len(px) >= 4 && len(out) >= 32 { // four pixels a step, as Decode
			binary.BigEndian.PutUint64(out, math.Float64bits(px[0]))
			binary.BigEndian.PutUint64(out[8:], math.Float64bits(px[1]))
			binary.BigEndian.PutUint64(out[16:], math.Float64bits(px[2]))
			binary.BigEndian.PutUint64(out[24:], math.Float64bits(px[3]))
			px, out = px[4:], out[32:]
		}
		for _, v := range px {
			binary.BigEndian.PutUint64(out, math.Float64bits(v))
			out = out[8:]
		}
		clear(out)
		if _, err := f.Write(block); err != nil {
			return err
		}
		data = data[n:]
	}
	return f.Sync()
}

// Read loads and parses the FITS file at path into dst and returns it, or
// into a new image when dst is nil. The read is one vfs.ReadInto into a
// raw buffer held by dst; it and dst.Data are reused when their capacity
// allows, so reading many files into one image allocates only for the
// largest.
func Read(fs vfs.FS, path string, dst *Image) (*Image, error) {
	if dst == nil {
		dst = &Image{}
	}
	raw, err := vfs.ReadInto(fs, path, dst.raw)
	if err != nil {
		return nil, err
	}
	dst.raw = raw
	if err := dst.Decode(raw); err != nil {
		return nil, err
	}
	return dst, nil
}
