// Package message implements the data plane of packetized multicast: the
// wire format of multicast packets (the header a smart NI inspects to
// identify and forward multicast traffic), message fragmentation into
// fixed-size packets, and reassembly at destinations.
//
// The timing packages (sim, flitsim) model when packets move; this package
// models what they carry, so an end-to-end test can verify that a
// multicast delivers byte-identical messages to every destination in
// packet order (FPFS preserves order by construction — the reassembler
// nevertheless handles gaps defensively and reports protocol violations).
//
// A received packet is validated in one place, Parse: the header decodes,
// the length matches, the CRC-32C over the wire bytes agrees. The reliable
// NI and Reassembler.Add call it once and hand
// the header on to Reassembler.Put, which copies the body once into the
// message's one buffer; the plain NI, which forwards before it verifies,
// calls Parse's halves (DecodeHeader, Header.Verify) either side of that.
package message

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

const (
	// HeaderSize is the encoded header length in bytes.
	HeaderSize = 20
	// sumOff is the offset of the 4-byte checksum field in the header.
	sumOff = 14
)

// Header is the per-packet control block the NI coprocessor reads. The
// Multicast flag is what distinguishes packets the smart NI must replicate
// to its children (paper Section 2.4).
type Header struct {
	MsgID     uint32 // message identifier, unique per (source, message)
	Source    uint16 // source host
	Seq       uint16 // packet index within the message, 0-based
	Total     uint16 // packets in the message
	Multicast bool   // smart-NI forwarding flag
	Payload   uint16 // payload bytes in this packet
	// Checksum is CRC-32C over the packet's wire bytes — header (with this
	// field read as zero) and payload — so corruption anywhere in the
	// packet, control fields included, is detected, not just payload damage.
	Checksum uint32
	// Epoch is the membership epoch the packet was (re)transmitted under;
	// 0 means epoch fencing is not armed. The field sits in previously
	// reserved header bytes and is covered by the checksum, so a damaged
	// epoch is rejected like any other corruption.
	Epoch uint16
}

// Reject sentinels, distinguishable with errors.Is: every received packet
// that DecodeHeader, Verify, Parse or a Reassembler refuses wraps ErrCorrupt
// (damaged bytes: a short or inconsistent header, a length that
// disagrees, a checksum mismatch) or ErrMisfit (an intact packet that does
// not fit the message being rebuilt: another message's, a duplicate, a
// size off the layout).
var (
	ErrCorrupt = errors.New("message: corrupt packet")
	ErrMisfit  = errors.New("message: packet does not fit the message")
)

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	// zeroSum stands in for the checksum field while a packet is summed: a
	// package-level slice, because crc32.Update dispatches through a function
	// value and a stack temporary handed to it would escape, once per packet.
	zeroSum = make([]byte, 4)
)

// checksum sums pkt's wire bytes in place, the checksum field read as zero.
func checksum(pkt []byte) uint32 {
	c := crc32.Update(0, castagnoli, pkt[:sumOff])
	c = crc32.Update(c, castagnoli, zeroSum)
	return crc32.Update(c, castagnoli, pkt[sumOff+4:])
}

// seal stamps pkt's checksum field so that the packet verifies.
func seal(pkt []byte) []byte {
	binary.BigEndian.PutUint32(pkt[sumOff:], checksum(pkt))
	return pkt
}

// Encode appends the binary header to dst and returns the result.
func (h Header) Encode(dst []byte) []byte {
	var buf [HeaderSize]byte
	binary.BigEndian.PutUint32(buf[0:], h.MsgID)
	binary.BigEndian.PutUint16(buf[4:], h.Source)
	binary.BigEndian.PutUint16(buf[6:], h.Seq)
	binary.BigEndian.PutUint16(buf[8:], h.Total)
	if h.Multicast {
		buf[10] = 1
	}
	binary.BigEndian.PutUint16(buf[12:], h.Payload)
	binary.BigEndian.PutUint32(buf[sumOff:], h.Checksum)
	binary.BigEndian.PutUint16(buf[18:], h.Epoch)
	// byte 11 reserved
	return append(dst, buf[:]...)
}

// DecodeHeader parses a header from the start of b. It reads control
// fields only — enough for an NI to find the packet's session; whether the
// packet is intact is Verify's question.
func DecodeHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, fmt.Errorf("%w: short header: %d bytes", ErrCorrupt, len(b))
	}
	h := Header{
		MsgID:     binary.BigEndian.Uint32(b[0:]),
		Source:    binary.BigEndian.Uint16(b[4:]),
		Seq:       binary.BigEndian.Uint16(b[6:]),
		Total:     binary.BigEndian.Uint16(b[8:]),
		Multicast: b[10] == 1,
		Payload:   binary.BigEndian.Uint16(b[12:]),
		Checksum:  binary.BigEndian.Uint32(b[sumOff:]),
		Epoch:     binary.BigEndian.Uint16(b[18:]),
	}
	if h.Total == 0 {
		return Header{}, fmt.Errorf("%w: zero-packet message", ErrCorrupt)
	}
	if h.Seq >= h.Total {
		return Header{}, fmt.Errorf("%w: seq %d >= total %d", ErrCorrupt, h.Seq, h.Total)
	}
	return h, nil
}

// Parse is the one validator of received packets: the header decodes, the
// packet is as long as the header says, and the checksum over its wire
// bytes matches. The returned body aliases pkt.
func Parse(pkt []byte) (Header, []byte, error) {
	h, err := DecodeHeader(pkt)
	if err != nil {
		return Header{}, nil, err
	}
	body, err := h.Verify(pkt)
	return h, body, err
}

// Verify is Parse after the decode, for a caller that decoded h from pkt
// earlier (the plain NI decodes to find the session, forwards, and only
// then verifies): length and checksum, one pass over the bytes.
func (h Header) Verify(pkt []byte) ([]byte, error) {
	body := pkt[HeaderSize:]
	if len(body) != int(h.Payload) {
		return nil, fmt.Errorf("%w: payload length %d, header says %d", ErrCorrupt, len(body), h.Payload)
	}
	if checksum(pkt) != h.Checksum {
		return nil, fmt.Errorf("%w: checksum mismatch on packet %d", ErrCorrupt, h.Seq)
	}
	return body, nil
}

// Packetize fragments data into multicast packets of at most packetBytes
// total size (header included). Zero-length messages produce one empty
// packet so the destination still learns the message completed.
func Packetize(msgID uint32, source int, data []byte, packetBytes int) ([][]byte, error) {
	if packetBytes <= HeaderSize {
		return nil, fmt.Errorf("message: packet size %d <= header size %d", packetBytes, HeaderSize)
	}
	payload := packetBytes - HeaderSize
	if payload > 0xFFFF {
		return nil, fmt.Errorf("message: packet size %d exceeds the 16-bit payload length field", packetBytes)
	}
	if source < 0 || source > 0xFFFF {
		return nil, fmt.Errorf("message: source %d out of uint16 range", source)
	}
	total := (len(data) + payload - 1) / payload
	if total == 0 {
		total = 1
	}
	if total > 0xFFFF {
		return nil, fmt.Errorf("message: %d packets exceed uint16 sequence space", total)
	}
	// One buffer, cut into capacity-capped packets: no append spills over.
	buf := make([]byte, 0, total*HeaderSize+len(data))
	packets := make([][]byte, 0, total)
	for i := 0; i < total; i++ {
		lo := i * payload
		chunk := data[lo:min(lo+payload, len(data))]
		h := Header{
			MsgID:     msgID,
			Source:    uint16(source),
			Seq:       uint16(i),
			Total:     uint16(total),
			Multicast: true,
			Payload:   uint16(len(chunk)),
		}
		at := len(buf)
		buf = append(h.Encode(buf), chunk...)
		packets = append(packets, seal(buf[at:len(buf):len(buf)]))
	}
	return packets, nil
}

// WithEpoch returns a copy of pkt re-stamped with the given transmission
// epoch, checksum recomputed so the copy still verifies. The input packet
// must itself be valid. When the epoch already matches, the original slice
// is returned unchanged (and unaliased copies are not needed: the fast
// path is read-only).
func WithEpoch(pkt []byte, epoch uint16) ([]byte, error) {
	h, err := DecodeHeader(pkt)
	if err != nil {
		return nil, err
	}
	if h.Epoch == epoch {
		return pkt, nil
	}
	out := append([]byte(nil), pkt...)
	binary.BigEndian.PutUint16(out[18:], epoch)
	return seal(out), nil
}

// reasmPrealloc is how many bytes a Reassembler commits on the strength of
// a header's claims alone: a message's extent, total × chunk, is up to
// 4 GiB, so beyond this the buffer grows with the bytes actually accepted.
const reasmPrealloc = 1 << 20

// Reassembler rebuilds one message from its packets, defensively: it
// tolerates out-of-order arrival and rejects duplicates, cross-message
// mixes and packets whose size does not fit the message's layout.
//
// Every packet but the last carries the same payload size (chunk), so
// packet seq belongs at seq × chunk of one buffer and is copied there once.
// What is held stays within a constant multiple of the bytes accepted (plus
// reasmPrealloc and a flag per packet): a packet beyond what the buffer may
// yet cover — or the last packet, while no other has fixed chunk — waits in
// held until the buffer reaches it.
type Reassembler struct {
	msgID  uint32
	source uint16
	total  int            // 0 until the first packet
	got    int            // packets accepted
	size   int            // payload bytes accepted: the message length once complete
	chunk  int            // payload bytes of every packet but the last; 0 until one arrives
	tail   int            // payload bytes of the last packet; 0 until it arrives
	have   []bool         // per packet: accepted
	buf    []byte         // packet seq's body at seq × chunk, as far as buf reaches
	held   map[int][]byte // own copies of the bodies buf does not reach yet, by seq
}

// NewReassembler returns an empty reassembler; the first packet fixes the
// message identity.
func NewReassembler() *Reassembler { return &Reassembler{} }

// Add validates one received packet and consumes it. It returns true when
// the message is complete.
func (r *Reassembler) Add(pkt []byte) (bool, error) {
	h, body, err := Parse(pkt)
	if err != nil {
		return false, err
	}
	return r.Put(h, body)
}

// Put consumes one packet that Parse (or DecodeHeader and Verify) has
// validated: h and body are trusted to be what those returned. It returns
// true when the message is complete.
func (r *Reassembler) Put(h Header, body []byte) (bool, error) {
	if r.total == 0 {
		r.msgID, r.source, r.total = h.MsgID, h.Source, int(h.Total)
		r.have = make([]bool, r.total)
		r.buf = []byte{} // non-nil: an empty message, once complete, is still a message
	}
	if h.MsgID != r.msgID || h.Source != r.source || int(h.Total) != r.total {
		return false, fmt.Errorf("%w: packet from message %d/%d mixed into %d/%d",
			ErrMisfit, h.MsgID, h.Source, r.msgID, r.source)
	}
	seq, n := int(h.Seq), len(body)
	if r.have[seq] {
		return false, fmt.Errorf("%w: duplicate packet %d", ErrMisfit, seq)
	}
	last := seq == r.total-1
	fits := r.chunk == 0 || n <= r.chunk // the last packet: no longer than the others
	if !last {
		fits = n > 0 && n >= r.tail && (r.chunk == 0 || n == r.chunk)
	}
	if !fits {
		return false, fmt.Errorf("%w: packet %d carries %d payload bytes; the others carry %d, the last %d",
			ErrMisfit, seq, n, r.chunk, r.tail)
	}
	if last {
		r.tail = n
	}
	if !last || r.total == 1 {
		r.chunk = n
	}
	r.have[seq] = true
	r.got++
	r.size += n
	if r.grow(); !r.place(seq, body) {
		if r.held == nil {
			r.held = map[int][]byte{}
		}
		r.held[seq] = append([]byte(nil), body...)
	}
	return r.got == r.total, nil
}

// grow extends buf toward the message's extent, doubling while that stays
// within four times the bytes accepted, and places the held packets the
// extension reaches.
func (r *Reassembler) grow() {
	extent, n := r.total*r.chunk, len(r.buf)
	if n == 0 {
		n = min(extent, reasmPrealloc)
	}
	for n < extent && n <= 2*r.size {
		n *= 2
	}
	if n = min(n, extent); n == len(r.buf) {
		return
	}
	r.buf = append(make([]byte, 0, n), r.buf...)[:n]
	for seq, body := range r.held {
		if r.place(seq, body) {
			delete(r.held, seq)
		}
	}
}

// place copies body to packet seq's offset if that is known (any packet
// but the last fixes chunk) and buf reaches that far.
func (r *Reassembler) place(seq int, body []byte) bool {
	off := seq * r.chunk
	if (seq > 0 && r.chunk == 0) || off+len(body) > len(r.buf) {
		return false
	}
	copy(r.buf[off:], body)
	return true
}

// Complete reports whether all packets have arrived.
func (r *Reassembler) Complete() bool { return r.total > 0 && r.got == r.total }

// Bytes returns the reassembled message: the reassembler's buffer, not a
// copy. It panics if incomplete.
func (r *Reassembler) Bytes() []byte {
	if !r.Complete() {
		panic("message: reassembly incomplete")
	}
	return r.buf[:r.size]
}

// Progress returns received and total packet counts.
func (r *Reassembler) Progress() (got, total int) { return r.got, r.total }
