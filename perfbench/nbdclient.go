package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// NBD protocol constants the client speaks (newstyle fixed handshake,
// NBD_OPT_GO, simple replies).
const (
	nbdMagic         = 0x4e42444d41474943 // "NBDMAGIC"
	optMagic         = 0x49484156454f5054 // "IHAVEOPT"
	repMagic         = 0x3e889045565a9
	requestMagic     = 0x25609513
	simpleReplyMagic = 0x67446698

	clientFlagFixedNewstyle = 1 << 0
	clientFlagNoZeroes      = 1 << 1

	optGo      = 7
	repAck     = 1
	repInfo    = 3
	infoExport = 0

	cmdRead  = 0
	cmdWrite = 1
	cmdDisc  = 2
	cmdFlush = 3
)

// nbdOp is one request on a pipelined connection. The sender fills the
// request fields; the reader goroutine fills recv, errno and (for
// reads) data before handing the op to the connection's reply hook. A
// read's data is the connection's reply buffer, overwritten by the next
// read reply, so the hook must not keep it.
type nbdOp struct {
	cmd    uint16
	off    uint64
	length uint32
	data   []byte // write payload, or the read reply
	handle uint64

	sent, recv int64 // ns on the benchmark clock
	errno      uint32
}

// nbdClient is a pipelined NBD client: any number of requests may be in
// flight, replies may come back in any order, and a reader goroutine
// hands each completed op to onReply. The server's own test client
// (nbdtest) allows one request in flight, which cannot give queue
// depth above one on two connections.
type nbdClient struct {
	conn net.Conn
	br   *bufio.Reader
	size uint64
	id   uint64 // high bits of every handle, so handles are unique per run

	wmu  sync.Mutex
	wbuf []byte

	mu      sync.Mutex
	pending map[uint64]*nbdOp
	seq     uint64

	onReply    func(*nbdOp)
	rbuf       []byte // read replies land here; valid during onReply only
	readerDone chan struct{}
}

// dialNBD connects, negotiates export with NBD_OPT_GO and starts the
// reply reader.
func dialNBD(addr, export string, id uint64, onReply func(*nbdOp)) (*nbdClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &nbdClient{
		conn:       conn,
		br:         bufio.NewReaderSize(conn, 256<<10),
		id:         id << 48,
		pending:    make(map[uint64]*nbdOp),
		onReply:    onReply,
		readerDone: make(chan struct{}),
	}
	if err := c.handshake(export); err != nil {
		conn.Close()
		return nil, fmt.Errorf("nbd handshake for %s: %w", export, err)
	}
	go c.readLoop()
	return c, nil
}

func (c *nbdClient) handshake(export string) error {
	var greet [18]byte
	if _, err := io.ReadFull(c.br, greet[:]); err != nil {
		return err
	}
	if binary.BigEndian.Uint64(greet[0:8]) != nbdMagic || binary.BigEndian.Uint64(greet[8:16]) != optMagic {
		return errors.New("bad server greeting")
	}
	msg := binary.BigEndian.AppendUint32(nil, clientFlagFixedNewstyle|clientFlagNoZeroes)
	payload := binary.BigEndian.AppendUint32(nil, uint32(len(export)))
	payload = append(payload, export...)
	payload = binary.BigEndian.AppendUint16(payload, 0) // no info requests
	msg = binary.BigEndian.AppendUint64(msg, optMagic)
	msg = binary.BigEndian.AppendUint32(msg, optGo)
	msg = binary.BigEndian.AppendUint32(msg, uint32(len(payload)))
	msg = append(msg, payload...)
	if _, err := c.conn.Write(msg); err != nil {
		return err
	}
	for {
		var hdr [20]byte
		if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
			return err
		}
		if binary.BigEndian.Uint64(hdr[0:8]) != repMagic {
			return errors.New("bad option reply magic")
		}
		typ := binary.BigEndian.Uint32(hdr[12:16])
		data := make([]byte, binary.BigEndian.Uint32(hdr[16:20]))
		if _, err := io.ReadFull(c.br, data); err != nil {
			return err
		}
		switch {
		case typ == repAck:
			if c.size == 0 {
				return errors.New("GO acked without export size")
			}
			return nil
		case typ == repInfo:
			if len(data) == 12 && binary.BigEndian.Uint16(data[0:2]) == infoExport {
				c.size = binary.BigEndian.Uint64(data[2:10])
			}
		default:
			return fmt.Errorf("GO refused (reply %#x): %s", typ, data)
		}
	}
}

// send transmits op. The op is registered before its bytes leave, so
// a fast reply always finds it.
func (c *nbdClient) send(op *nbdOp) error {
	c.mu.Lock()
	c.seq++
	op.handle = c.id | c.seq
	c.pending[op.handle] = op
	c.mu.Unlock()

	c.wmu.Lock()
	defer c.wmu.Unlock()
	b := c.wbuf[:0]
	b = binary.BigEndian.AppendUint32(b, requestMagic)
	b = binary.BigEndian.AppendUint16(b, 0)
	b = binary.BigEndian.AppendUint16(b, op.cmd)
	b = binary.BigEndian.AppendUint64(b, op.handle)
	b = binary.BigEndian.AppendUint64(b, op.off)
	b = binary.BigEndian.AppendUint32(b, op.length)
	if op.cmd == cmdWrite {
		b = append(b, op.data...)
	}
	c.wbuf = b
	op.sent = now()
	_, err := c.conn.Write(b)
	return err
}

// readLoop decodes simple replies until the connection closes. A
// malformed reply ends it too; the requests still pending then never
// complete, and the run's time limit reports the stall.
func (c *nbdClient) readLoop() {
	defer close(c.readerDone)
	var hdr [16]byte
	for {
		if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
			return
		}
		if binary.BigEndian.Uint32(hdr[0:4]) != simpleReplyMagic {
			return
		}
		h := binary.BigEndian.Uint64(hdr[8:16])
		c.mu.Lock()
		op := c.pending[h]
		delete(c.pending, h)
		c.mu.Unlock()
		if op == nil {
			return
		}
		op.errno = binary.BigEndian.Uint32(hdr[4:8])
		if op.cmd == cmdRead && op.errno == 0 {
			if cap(c.rbuf) < int(op.length) {
				c.rbuf = make([]byte, op.length)
			}
			op.data = c.rbuf[:op.length]
			if _, err := io.ReadFull(c.br, op.data); err != nil {
				return
			}
		}
		op.recv = now()
		c.onReply(op)
	}
}

// close sends NBD_CMD_DISC, closes the socket and waits for the reader.
// Every request must have been answered first.
func (c *nbdClient) close() error {
	err := c.send(&nbdOp{cmd: cmdDisc})
	c.mu.Lock()
	for h := range c.pending { // DISC gets no reply
		delete(c.pending, h)
	}
	c.mu.Unlock()
	if cerr := c.conn.Close(); err == nil {
		err = cerr
	}
	<-c.readerDone
	return err
}

// epoch anchors the benchmark clock; now is monotonic ns since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }
