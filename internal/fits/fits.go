// Package fits implements the subset of the Flexible Image Transport System
// (FITS) format the Montage proxy pipeline uses: single-HDU files with
// 80-character header cards in 2,880-byte blocks and big-endian float64
// (BITPIX = -64) image data, written through the vfs layer in
// 2,880-byte-block writes so that storage faults land on realistic
// device-write boundaries.
//
// Write streams an image through one block buffer with the write calls and
// bytes of a byte-at-a-time encoder, which TestEncodeMatchesReferenceEncoder
// keeps as its reference. Read decodes into a caller-owned *Image, reusing
// its pixels and raw bytes. The package holds no buffers of its own.
package fits

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

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

// At returns the pixel at (x, y); it panics on out-of-range access.
func (im *Image) At(x, y int) float64 { return im.Data[y*im.Width+x] }

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
	v00 := im.At(x0, y0)
	v10 := im.At(x1, y0)
	v01 := im.At(x0, y1)
	v11 := im.At(x1, y1)
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

// decode parses a FITS byte stream written by Write (or corrupted en
// route) into im, reusing its pixel buffer. Violations return *FormatError
// and leave im's header fields and pixels unchanged.
func (im *Image) decode(raw []byte) error {
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
	data := raw[blocks*BlockSize:]
	for i := range im.Data {
		im.Data[i] = math.Float64frombits(binary.BigEndian.Uint64(data[i*8:]))
	}
	return nil
}

// parseHeader parses the header blocks at the start of raw into a
// pixel-less image and counts them.
func parseHeader(raw []byte) (hd Image, blocks int, err error) {
	if len(raw) < BlockSize {
		return hd, 0, &FormatError{Msg: "file shorter than one header block"}
	}
	hdr := map[string]string{}
	for end := false; !end; blocks++ {
		if (blocks+1)*BlockSize > len(raw) {
			return hd, 0, &FormatError{Msg: "header END card missing"}
		}
		block := raw[blocks*BlockSize : (blocks+1)*BlockSize]
		for c := 0; c < BlockSize/cardLen; c++ {
			line := string(block[c*cardLen : (c+1)*cardLen])
			key := strings.TrimSpace(line[:8])
			if key == "END" {
				end = true
				break
			}
			if key == "" {
				continue
			}
			if len(line) < 10 || line[8] != '=' {
				return hd, 0, &FormatError{Msg: "malformed card: " + strings.TrimSpace(line)}
			}
			hdr[key] = strings.TrimSpace(line[10:])
		}
	}
	if hdr["SIMPLE"] != "T" {
		return hd, 0, &FormatError{Msg: "not a SIMPLE FITS file"}
	}
	if hdr["BITPIX"] != "-64" {
		return hd, 0, &FormatError{Msg: "unsupported BITPIX " + hdr["BITPIX"]}
	}
	if hdr["NAXIS"] != "2" {
		return hd, 0, &FormatError{Msg: "unsupported NAXIS " + hdr["NAXIS"]}
	}
	if hd.Width, err = strconv.Atoi(hdr["NAXIS1"]); err != nil || hd.Width <= 0 || hd.Width > 1<<16 {
		return hd, 0, &FormatError{Msg: "bad NAXIS1 " + hdr["NAXIS1"]}
	}
	if hd.Height, err = strconv.Atoi(hdr["NAXIS2"]); err != nil || hd.Height <= 0 || hd.Height > 1<<16 {
		return hd, 0, &FormatError{Msg: "bad NAXIS2 " + hdr["NAXIS2"]}
	}
	if hd.CRVAL1, err = strconv.ParseFloat(hdr["CRVAL1"], 64); err != nil {
		return hd, 0, &FormatError{Msg: "bad CRVAL1 " + hdr["CRVAL1"]}
	}
	if hd.CRVAL2, err = strconv.ParseFloat(hdr["CRVAL2"], 64); err != nil {
		return hd, 0, &FormatError{Msg: "bad CRVAL2 " + hdr["CRVAL2"]}
	}
	return hd, blocks, nil
}

// putHeader fills block with the first block of the file Write makes of
// im: per card, the key left-justified in eight columns, "= ", and the
// value right-justified in twenty, cut at column 80; spaces elsewhere.
func putHeader(block []byte, im *Image) {
	for i := range block {
		block[i] = ' '
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
		for i, v := range data[:n] {
			binary.BigEndian.PutUint64(block[i*8:], math.Float64bits(v))
		}
		clear(block[n*8:])
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
	if err := dst.decode(raw); err != nil {
		return nil, err
	}
	return dst, nil
}
