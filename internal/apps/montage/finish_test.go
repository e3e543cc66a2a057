package montage

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ffis/internal/vfs"
)

// setCard returns a copy of a FITS file with the value of its key card
// replaced, cut to the 80-column card.
func setCard(raw []byte, key, value string) []byte {
	out := bytes.Clone(raw)
	at := bytes.Index(out, []byte(fmt.Sprintf("%-8s= ", key)))
	copy(out[at:at+80], fmt.Sprintf("%-8s= %20s%s", key, value, strings.Repeat(" ", 80)))
	return out
}

// FuzzMontageFinish feeds finish and the file stages the same corrupted
// stage output: the fuzzer's bytes replace one projection or area file of
// a post-run MT1 world, the plane-fit table of an MT2 world, or one
// corrected image of an MT3 world. Either both fail, or finish returns
// the image and statistics text the file stages write. Neither may panic:
// the campaign loop recovers panics in Run, not in Classify.
func FuzzMontageFinish(f *testing.F) {
	cfg := DefaultConfig()
	type cell struct {
		from  Stage
		world *vfs.MemFS
		files []string
	}
	var cells []cell
	for _, stage := range []Stage{StageProject, StageDiff, StageBg} {
		app, err := NewApp(cfg, stage)
		if err != nil {
			f.Fatal(err)
		}
		world := vfs.NewMemFS()
		if err := app.Setup(world); err != nil {
			f.Fatal(err)
		}
		if err := app.Run(world); err != nil {
			f.Fatal(err)
		}
		c := cell{from: stage + 1, world: world}
		for i := 0; i < cfg.Tiles; i++ {
			switch stage {
			case StageProject:
				c.files = append(c.files, projPath(i), areaPath(i))
			case StageBg:
				c.files = append(c.files, corrPath(i))
			}
		}
		if stage == StageDiff {
			c.files = []string{FitsTablePath}
		}
		cells = append(cells, c)
	}
	for s, c := range cells {
		for k := range c.files[:min(2, len(c.files))] {
			raw, err := vfs.ReadFile(c.world, c.files[k])
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(s), uint8(k), raw)
			f.Add(uint8(s), uint8(k), raw[:len(raw)/2])
			if c.from == StageBg {
				f.Add(uint8(s), uint8(k), append(bytes.Clone(raw), "304 1 0.5 0.01 0.01 900\n1 -3 0.5 0.01 0.01 900\n"...))
				f.Add(uint8(s), uint8(k), []byte("0 1 NaN +Inf -Inf 900\n"))
				continue
			}
			for _, v := range []string{"1e300", "-1e300", "NaN", "+Inf", "-Inf", "12.9999999", strings.Repeat("9", 75)} {
				f.Add(uint8(s), uint8(k), setCard(raw, "CRVAL1", v))
				f.Add(uint8(s), uint8(k), setCard(raw, "CRVAL2", v))
			}
			f.Add(uint8(s), uint8(k), setCard(raw, "NAXIS1", "61"))
			f.Add(uint8(s), uint8(k), setCard(raw, "NAXIS2", "61"))
		}
	}
	f.Fuzz(func(t *testing.T, s, k uint8, data []byte) {
		c := cells[int(s)%len(cells)]
		path := c.files[int(k)%len(c.files)]
		memory, file := c.world.Clone(), c.world.Clone()
		for _, w := range []vfs.FS{memory, file} {
			if err := vfs.WriteFile(w, path, data); err != nil {
				t.Fatal(err)
			}
		}
		img, stats, err := cfg.finish(memory, c.from, cfg.newScratch())
		fileErr := cfg.RunPipeline(file, c.from, StageAdd)
		if (err == nil) != (fileErr == nil) {
			t.Fatalf("%s with %d bytes: finish error %v, file stages %v", path, len(data), err, fileErr)
		}
		if err != nil {
			return
		}
		wantImg, err := vfs.ReadFile(file, ImagePath)
		if err != nil {
			t.Fatal(err)
		}
		wantStats, err := vfs.ReadFile(file, StatsPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, wantImg) || stats != string(wantStats) {
			t.Fatalf("%s with %d bytes: finish's image or statistics differ from the file stages'\n  finish %q\n  file   %q", path, len(data), stats, wantStats)
		}
	})
}
