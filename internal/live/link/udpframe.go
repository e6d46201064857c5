package link

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// This file is the datagram wire format of the UDP transport (udp.go):
// every UDP datagram the network sends — data fragments, flow-control
// credits, credit probes, daemon control traffic — carries one fixed
// 34-byte header followed by an optional payload. The format is
// deliberately in the style of internal/message's packet header (a tiny
// versioned binary header with a CRC-32C checksum over everything), but
// it frames a *hop*, not a message: the payload of a data datagram is a
// fragment of one wire-format packet, and the message-level header rides
// inside it untouched.
//
// Layout (big-endian):
//
//	off size field
//	  0    2 magic "MC"
//	  2    1 version (DatagramVersion)
//	  3    1 kind (data / credit / probe / ctl)
//	  4    2 from host
//	  6    2 to host
//	  8    8 session nonce — datagrams of another run are dropped
//	 16    4 epoch — the edge incarnation the datagram belongs to
//	 20    4 seq — data: fragment sequence number of the incarnation;
//	              credit: cumulative fragments consumed by the receiver
//	 24    2 fragment index within the wire packet
//	 26    2 fragment count of the wire packet
//	 28    2 payload length
//	 30    4 CRC-32C over header (this field read as zero) + payload
//
// The epoch field decouples transport incarnations the way the message
// header's epoch decouples membership views: every Dial mints a fresh
// incarnation ID, so datagrams of a retired edge (a regraft's
// predecessor, an aborted run) can never corrupt the credit accounting
// or reassembly state of its successor.

// Datagram kinds.
const (
	dgData   = 1 // a fragment of one wire-format packet
	dgCredit = 2 // cumulative flow-control credit (seq = fragments consumed)
	dgProbe  = 3 // sender-side credit probe; the receiver answers with a credit
	dgCtl    = 4 // out-of-band control payload (daemon coordination)
)

// DatagramVersion is the wire-format revision; receivers drop datagrams
// of any other version (ErrWrongVersion from the decoder). Version 1
// carried an FNV-1a checksum in the same field.
const DatagramVersion = 2

const (
	dgMagic0 = 'M'
	dgMagic1 = 'C'
	// dgHeaderSize is the fixed framing overhead per datagram; its last
	// four bytes, from dgSumOff, are the checksum.
	dgHeaderSize = 34
	dgSumOff     = 30
	// maxDatagram bounds what the receive pump will read — the UDP
	// payload ceiling.
	maxDatagram = 64 * 1024
)

// Decoder sentinels, distinguishable with errors.Is: a version mismatch
// is an operational condition (mixed builds on one fabric) worth its own
// identity; everything else malformed is ErrBadDatagram.
var (
	ErrBadDatagram  = errors.New("link: malformed datagram")
	ErrWrongVersion = errors.New("link: datagram version mismatch")
)

// dgHeader is the decoded form of the 34-byte datagram header.
type dgHeader struct {
	Kind    uint8
	From    uint16
	To      uint16
	Session uint64
	Epoch   uint32 // edge incarnation ID
	Seq     uint32
	Frag    uint16
	Frags   uint16
	Length  uint16
}

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	// zeroSum stands in for the checksum field while a datagram is summed:
	// a package-level slice, because what crc32.Update is handed escapes.
	zeroSum = make([]byte, 4)
)

// dgChecksum sums one encoded datagram in place, the checksum field read
// as zero — the same construction internal/message uses.
func dgChecksum(dg []byte) uint32 {
	c := crc32.Update(0, castagnoli, dg[:dgSumOff])
	c = crc32.Update(c, castagnoli, zeroSum)
	return crc32.Update(c, castagnoli, dg[dgHeaderSize:])
}

// appendDatagram encodes one datagram (header + payload) into dst,
// returning the extended slice. h.Length is taken from the payload.
func appendDatagram(dst []byte, h dgHeader, payload []byte) []byte {
	if len(payload) > 0xFFFF {
		panic(fmt.Sprintf("link: datagram payload %d exceeds length field", len(payload)))
	}
	base := len(dst)
	dst = append(dst, make([]byte, dgHeaderSize)...)
	b := dst[base : base+dgHeaderSize]
	b[0], b[1] = dgMagic0, dgMagic1
	b[2] = DatagramVersion
	b[3] = h.Kind
	binary.BigEndian.PutUint16(b[4:6], h.From)
	binary.BigEndian.PutUint16(b[6:8], h.To)
	binary.BigEndian.PutUint64(b[8:16], h.Session)
	binary.BigEndian.PutUint32(b[16:20], h.Epoch)
	binary.BigEndian.PutUint32(b[20:24], h.Seq)
	binary.BigEndian.PutUint16(b[24:26], h.Frag)
	binary.BigEndian.PutUint16(b[26:28], h.Frags)
	binary.BigEndian.PutUint16(b[28:30], uint16(len(payload)))
	dst = append(dst, payload...)
	binary.BigEndian.PutUint32(dst[base+dgSumOff:], dgChecksum(dst[base:]))
	return dst
}

// decodeDatagram validates and decodes one received datagram. The
// returned payload aliases b; callers that keep it must copy. Rejections:
// short or oversized datagrams, bad magic, unknown kind, a fragment index
// at or beyond the fragment count, a length field disagreeing with the
// datagram size, and checksum mismatches are ErrBadDatagram; a version
// other than DatagramVersion is ErrWrongVersion.
func decodeDatagram(b []byte) (dgHeader, []byte, error) {
	var h dgHeader
	if len(b) < dgHeaderSize {
		return h, nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrBadDatagram, len(b), dgHeaderSize)
	}
	if len(b) > maxDatagram {
		return h, nil, fmt.Errorf("%w: %d bytes exceeds the %d-byte ceiling", ErrBadDatagram, len(b), maxDatagram)
	}
	if b[0] != dgMagic0 || b[1] != dgMagic1 {
		return h, nil, fmt.Errorf("%w: bad magic %#02x%02x", ErrBadDatagram, b[0], b[1])
	}
	if b[2] != DatagramVersion {
		return h, nil, fmt.Errorf("%w: got version %d, want %d", ErrWrongVersion, b[2], DatagramVersion)
	}
	h.Kind = b[3]
	if h.Kind < dgData || h.Kind > dgCtl {
		return h, nil, fmt.Errorf("%w: unknown kind %d", ErrBadDatagram, h.Kind)
	}
	h.From = binary.BigEndian.Uint16(b[4:6])
	h.To = binary.BigEndian.Uint16(b[6:8])
	h.Session = binary.BigEndian.Uint64(b[8:16])
	h.Epoch = binary.BigEndian.Uint32(b[16:20])
	h.Seq = binary.BigEndian.Uint32(b[20:24])
	h.Frag = binary.BigEndian.Uint16(b[24:26])
	h.Frags = binary.BigEndian.Uint16(b[26:28])
	h.Length = binary.BigEndian.Uint16(b[28:30])
	if h.Frags == 0 || h.Frag >= h.Frags {
		return h, nil, fmt.Errorf("%w: fragment %d/%d", ErrBadDatagram, h.Frag, h.Frags)
	}
	if int(h.Length) != len(b)-dgHeaderSize {
		return h, nil, fmt.Errorf("%w: length field %d, datagram carries %d payload bytes",
			ErrBadDatagram, h.Length, len(b)-dgHeaderSize)
	}
	if dgChecksum(b) != binary.BigEndian.Uint32(b[dgSumOff:]) {
		return h, nil, fmt.Errorf("%w: checksum mismatch", ErrBadDatagram)
	}
	return h, b[dgHeaderSize:], nil
}
