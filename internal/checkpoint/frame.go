package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
)

// Frame codec. Every durable file in the repo is built from one frame
// shape, told apart only by its magic:
//
//	<magic><crc32c-hex8> <payload-len>\n<payload bytes>
//
// Stream files append frames back to back, each followed by "\n": the
// serve job WAL ("walrec ") and the evaluation-cache segments
// ("casrec "). A snapshot ("pattyckpt\n") is exactly one frame with no
// trailing newline that spans the whole file. The CRC covers the
// payload only; the framing fields are validated structurally (exact
// hex width, digits-only length, bounded header line, exact
// terminator), so every byte of a frame participates in some check.

var (
	// ErrTornTail marks data that simply ends mid-frame — the shape a
	// crash during append leaves. Recovery truncates the tail and
	// continues; it is expected damage, not corruption.
	ErrTornTail = errors.New("checkpoint: torn frame tail")
	// ErrCorruptFrame marks a frame whose bytes are all present but
	// damaged (bad magic, bad header, checksum mismatch, a payload that
	// is not the expected record). Everything before it is trustworthy;
	// it and everything after are not.
	ErrCorruptFrame = errors.New("checkpoint: corrupt frame")
)

// castagnoli is the CRC-32C table (same polynomial iSCSI/ext4 use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxHeader bounds the header line after the magic: 8 hex digits, a
// space, a length no wider than 20 digits and the newline.
const maxHeader = 8 + 1 + 20 + 1

// appendFrame appends magic, header and payload to b.
func appendFrame(b []byte, magic string, payload []byte) []byte {
	b = append(b, magic...)
	b = fmt.Appendf(b, "%08x %d\n", crc32.Checksum(payload, castagnoli), len(payload))
	return append(b, payload...)
}

// EncodeFrame renders v as one stream frame: magic, header, JSON
// payload and the terminating newline.
func EncodeFrame(magic string, v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: marshal frame: %w", err)
	}
	return append(appendFrame(nil, magic, payload), '\n'), nil
}

// DecodeFrames parses a stream image into its maximal valid prefix of
// records. validLen is the byte offset just past the last good frame —
// the truncation point recovery uses. err is nil for a clean image,
// ErrTornTail when the data ends mid-frame, and ErrCorruptFrame when
// bytes that are fully present fail validation, including a frame that
// passes its CRC but whose JSON does not decode into T. In every case
// the returned records are exactly the valid prefix; damage never
// panics and never yields a partial record.
func DecodeFrames[T any](magic string, raw []byte) (recs []T, validLen int, err error) {
	for validLen < len(raw) {
		payload, n, err := readFrame(raw[validLen:], magic, "\n")
		if err != nil {
			return recs, validLen, fmt.Errorf("%w at offset %d", err, validLen)
		}
		var rec T
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, validLen, fmt.Errorf("%w: payload at offset %d: %v", ErrCorruptFrame, validLen, err)
		}
		recs = append(recs, rec)
		validLen += n
	}
	return recs, validLen, nil
}

// readFrame parses the frame at the start of b, which must end with
// term, and returns its payload and the bytes it spans (term
// included). A proper prefix of a frame is ErrTornTail; anything else
// that fails validation is ErrCorruptFrame.
func readFrame(b []byte, magic, term string) (payload []byte, n int, err error) {
	if !bytes.HasPrefix(b, []byte(magic)) {
		if len(b) < len(magic) && bytes.HasPrefix([]byte(magic), b) {
			return nil, 0, fmt.Errorf("%w: %d byte(s) of magic", ErrTornTail, len(b))
		}
		return nil, 0, fmt.Errorf("%w: bad magic", ErrCorruptFrame)
	}
	h := b[len(magic):]
	nl := bytes.IndexByte(h[:min(len(h), maxHeader+1)], '\n')
	if nl < 0 {
		if len(h) <= maxHeader {
			return nil, 0, fmt.Errorf("%w: unterminated header", ErrTornTail)
		}
		return nil, 0, fmt.Errorf("%w: oversized header", ErrCorruptFrame)
	}
	sum, size, ok := parseHeader(h[:nl])
	if !ok {
		return nil, 0, fmt.Errorf("%w: malformed header %q", ErrCorruptFrame, h[:nl])
	}
	body := h[nl+1:]
	if size > len(body) || len(body)-size < len(term) {
		return nil, 0, fmt.Errorf("%w: frame wants %d byte(s), has %d", ErrTornTail, size+len(term), len(body))
	}
	if string(body[size:size+len(term)]) != term {
		return nil, 0, fmt.Errorf("%w: unterminated frame", ErrCorruptFrame)
	}
	payload = body[:size]
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return nil, 0, fmt.Errorf("%w: checksum %08x, want %08x", ErrCorruptFrame, got, sum)
	}
	return payload, len(magic) + nl + 1 + size + len(term), nil
}

// parseHeader splits "<crc32c-hex8> <decimal length>"; neither field
// may carry a sign, prefix or padding.
func parseHeader(line []byte) (sum uint32, size int, ok bool) {
	if len(line) < 10 || line[8] != ' ' {
		return 0, 0, false
	}
	s, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return 0, 0, false
	}
	n, err := strconv.ParseUint(string(line[9:]), 10, strconv.IntSize-1)
	if err != nil {
		return 0, 0, false
	}
	return uint32(s), int(n), true
}

// WriteFileAtomic writes data to path so that a crash at any instant
// leaves either the old file or the new one: temp file in the same
// directory, fsync, rename, directory fsync.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	SyncDir(dir)
	return nil
}

// TruncateSync cuts the file at path to n bytes and makes the cut
// durable — how a damaged stream tail is removed.
func TruncateSync(path string, n int64) error {
	if err := os.Truncate(path, n); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// SyncDir fsyncs a directory so renames and creations in it are
// durable; best-effort where the platform does not support fsync on
// directories.
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
