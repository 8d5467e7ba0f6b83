package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// sweepRec is the record the codec sweep frames: string, integer and
// raw nested JSON fields, the shapes WAL records and cache entries
// carry.
type sweepRec struct {
	ID   int             `json:"id"`
	Note string          `json:"note"`
	Spec json.RawMessage `json:"spec,omitempty"`
}

func sweepRecord(i int) sweepRec {
	return sweepRec{ID: i, Note: fmt.Sprintf("record %d", i), Spec: json.RawMessage(`{"x":"y z"}`)}
}

// frameFormat is one on-disk use of the frame codec: how one record is
// encoded, how an image of consecutive records decodes, and how many
// records an image holds. A whole format's single frame is the file.
type frameFormat struct {
	name    string
	records int
	whole   bool
	encode  func(sweepRec) ([]byte, error)
	decode  func([]byte) ([]sweepRec, int, error)
}

// streamFormat is a WAL-style stream under magic.
func streamFormat(name, magic string) frameFormat {
	return frameFormat{
		name:    name,
		records: 4,
		encode:  func(r sweepRec) ([]byte, error) { return EncodeFrame(magic, r) },
		decode:  func(raw []byte) ([]sweepRec, int, error) { return DecodeFrames[sweepRec](magic, raw) },
	}
}

// snapshotFormat is a whole-file snapshot: one frame, which either
// loads completely or not at all.
var snapshotFormat = frameFormat{
	name:    "snapshot",
	records: 1,
	whole:   true,
	encode:  func(r sweepRec) ([]byte, error) { return Encode("sweep", r) },
	decode: func(raw []byte) ([]sweepRec, int, error) {
		var r sweepRec
		if err := Decode(raw, "sweep", &r); err != nil {
			return nil, 0, err
		}
		return []sweepRec{r}, len(raw), nil
	},
}

// TestFrameCorruptionEveryOffset is the codec's byte-exhaustive gate,
// run for the serve WAL's and the cache segments' stream magics and
// for the snapshot frame. Every byte of a multi-record image is flipped
// (two masks), and the image is separately truncated at every length.
// Decoding must never panic, must classify the damage with a typed
// error, must recover exactly the records that end before the damage —
// never a partial or altered record — and must never report a valid
// length past the damage. A cut at a record boundary is a clean image.
func TestFrameCorruptionEveryOffset(t *testing.T) {
	for _, f := range []frameFormat{
		streamFormat("walrec", "walrec "),
		streamFormat("casrec", "casrec "),
		snapshotFormat,
	} {
		t.Run(f.name, func(t *testing.T) { sweepFormat(t, f) })
	}
}

func sweepFormat(t *testing.T, f frameFormat) {
	var img []byte
	var ends []int // byte offset just past record i
	for i := 1; i <= f.records; i++ {
		frame, err := f.encode(sweepRecord(i))
		if err != nil {
			t.Fatal(err)
		}
		img = append(img, frame...)
		ends = append(ends, len(img))
	}
	// intactBefore(off) is how many records end at or before off.
	intactBefore := func(off int) int {
		k := 0
		for _, e := range ends {
			if e <= off {
				k++
			}
		}
		return k
	}
	// prefix checks the recovered records are exactly the first k.
	prefix := func(label string, off int, recs []sweepRec, k int) {
		t.Helper()
		if len(recs) != k {
			t.Fatalf("%s at %d: recovered %d records, want %d", label, off, len(recs), k)
		}
		for i, r := range recs {
			if !reflect.DeepEqual(r, sweepRecord(i+1)) {
				t.Fatalf("%s at %d: recovered record %d is %+v", label, off, i, r)
			}
		}
	}
	if recs, vl, err := f.decode(img); err != nil || vl != len(img) {
		t.Fatalf("clean image: validLen %d, err %v", vl, err)
	} else {
		prefix("clean", len(img), recs, f.records)
	}

	t.Run("flip", func(t *testing.T) {
		for off := 0; off < len(img); off++ {
			for _, mask := range []byte{0x01, 0xff} {
				mut := bytes.Clone(img)
				mut[off] ^= mask
				recs, validLen, err := f.decode(mut)
				if err == nil {
					t.Fatalf("flip %#x at %d: damage not detected", mask, off)
				}
				if !errors.Is(err, ErrCorruptFrame) && !errors.Is(err, ErrTornTail) {
					t.Fatalf("flip %#x at %d: untyped error %v", mask, off, err)
				}
				prefix("flip", off, recs, intactBefore(off))
				if validLen > off {
					t.Fatalf("flip %#x at %d: validLen %d reaches past the damage", mask, off, validLen)
				}
			}
		}
	})

	t.Run("truncate", func(t *testing.T) {
		for cut := 0; cut <= len(img); cut++ {
			recs, validLen, err := f.decode(img[:cut])
			want := intactBefore(cut)
			prefix("cut", cut, recs, want)
			wantLen := 0
			if want > 0 {
				wantLen = ends[want-1]
			}
			if validLen != wantLen {
				t.Fatalf("cut at %d: validLen %d, want %d", cut, validLen, wantLen)
			}
			// A stream is clean at every record boundary, the empty
			// image included; a snapshot only when whole.
			clean := wantLen == cut && (cut > 0 || !f.whole)
			if clean {
				if err != nil {
					t.Fatalf("cut at record boundary %d: unexpected error %v", cut, err)
				}
			} else if !errors.Is(err, ErrTornTail) {
				t.Fatalf("cut at %d: %v, want ErrTornTail", cut, err)
			}
		}
	})
}
