// Package storageengine implements IronSafe's storage system node: a
// TrustZone-booted server whose normal world runs the CSA runtime and the
// on-disk database engine over the secure storage framework, executing
// offloaded query fragments near the data and shipping filtered rows to the
// host.
package storageengine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"ironsafe/internal/engine"
	"ironsafe/internal/pager"
	"ironsafe/internal/securestore"
	"ironsafe/internal/simtime"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/tee/trustzone"
	"ironsafe/internal/transport"
)

// Config configures a storage server.
type Config struct {
	// DeviceID names this node.
	DeviceID string
	// Vendor signs the firmware and certifies the device (its ROTPK is the
	// monitor's root of trust for this node).
	Vendor *trustzone.Vendor
	// Location and FWVersion are the attributes execution policies check.
	Location  string
	FWVersion string
	// Secure selects the secure store (scs/sos); false gives the vanilla
	// pager (vcs/hons).
	Secure bool
	// Meter receives the node's work counters. Required.
	Meter *simtime.Meter
	// ScanConfig tunes the table-scan pipeline (batched reads + read-ahead)
	// for every heap on this node; the zero value keeps the sequential
	// per-page path.
	ScanConfig pager.ScanConfig
	// ExecBatchRows is the executor batch size for offloaded query phases
	// (0 = exec.DefaultBatchRows, 1 = row-at-a-time).
	ExecBatchRows int
	// MediumWrapper, when set, wraps the node's raw medium before the page
	// store opens over it — the chaos and crash-sweep harnesses hook fault
	// injectors in here. The wrapped device is reused across Restart, so an
	// armed injector keeps faulting the reopened store.
	MediumWrapper func(node string, dev pager.BlockDevice) pager.BlockDevice
}

// Server is one storage system node.
type Server struct {
	cfg    Config
	device *trustzone.Device
	secure *trustzone.SecureWorld
	nw     *trustzone.NormalWorld
	medium *pager.MemDevice
	dev    pager.BlockDevice // medium, possibly wrapped by cfg.MediumWrapper
	store  pager.PageStore
	db     *engine.DB

	// restartMu serializes the reopen paths (Restart, FinalizeRebuild,
	// BeginRebuild's open-for-import): two concurrent journal recoveries
	// over the same medium would interleave their replay writes.
	restartMu sync.Mutex

	mu       sync.Mutex
	booted   bool
	sessions map[string][]byte // session id -> key (from the monitor)
	// tickets are the channel-resumption tickets this node has left its
	// hosts (transport.ServerResuming). Like sessions they live in memory
	// only: Restart drops both.
	tickets *transport.TicketStore
	// epoch is the cluster membership epoch this node believes is current;
	// every offload reply carries it (rebuild.go). A fenced node misses the
	// bump broadcast, so its replies betray their staleness to the host.
	epoch uint64
	// rebuildM is the manifest of an in-flight replica rebuild (rebuild.go).
	rebuildM *securestore.RebuildManifest
}

// pagerCacheSize is the plain pager's page cache capacity, in pages.
const pagerCacheSize = 256

// New manufactures, boots, and initializes a storage server. Trusted boot
// runs with vendor-signed ATF and OP-TEE images; the normal-world image, the
// storage stack at FWVersion, is measured into the boot chain.
func New(cfg Config) (*Server, error) {
	if cfg.Meter == nil {
		return nil, errors.New("storageengine: meter required")
	}
	if cfg.Vendor == nil {
		return nil, errors.New("storageengine: vendor required")
	}
	device, err := trustzone.NewDevice(cfg.DeviceID, cfg.Vendor)
	if err != nil {
		return nil, err
	}
	atf := cfg.Vendor.SignImage("atf", "2.4", []byte("arm trusted firmware"))
	tos := cfg.Vendor.SignImage("optee", "3.4", []byte("op-tee trusted os"))
	nwImg := trustzone.FirmwareImage{Name: "normal-world", Version: cfg.FWVersion, Code: []byte("ironsafe storage stack " + cfg.FWVersion)}
	sw, nw, err := device.Boot(atf, tos, nwImg, cfg.Meter)
	if err != nil {
		return nil, fmt.Errorf("storageengine: trusted boot: %w", err)
	}

	s := &Server{
		cfg:      cfg,
		device:   device,
		secure:   sw,
		nw:       nw,
		medium:   pager.NewMemDevice(),
		booted:   true,
		sessions: map[string][]byte{},
		tickets:  transport.NewTicketStore(),
	}
	s.dev = s.medium
	if cfg.MediumWrapper != nil {
		s.dev = cfg.MediumWrapper(cfg.DeviceID, s.dev)
	}
	if err := s.openStore(); err != nil {
		return nil, err
	}
	return s, nil
}

// openStore (re)opens the page store and the database engine over the node's
// medium. On the secure configurations this runs the secure store's journal
// recovery: a medium crashed mid-commit deterministically resumes at the old
// or the new anchored state, while a rolled-back medium fails with
// securestore.ErrFreshness.
func (s *Server) openStore() error {
	s.restartMu.Lock()
	defer s.restartMu.Unlock()
	var store pager.PageStore
	if s.cfg.Secure {
		ss, err := securestore.Open(s.dev, s.nw, s.cfg.Meter, securestore.Options{})
		if err != nil {
			return err
		}
		store = ss
	} else {
		store = pager.NewPager(s.dev, s.cfg.Meter, pagerCacheSize)
	}
	db, err := engine.Open(store, s.cfg.Meter)
	if err != nil {
		return err
	}
	db.SetScanConfig(s.cfg.ScanConfig)
	db.SetExecBatchRows(s.cfg.ExecBatchRows)
	// Publish the swap atomically: a concurrent reader (integrity sweep,
	// offload) sees either the old consistent pair or the new one.
	s.mu.Lock()
	s.store = store
	s.db = db
	s.mu.Unlock()
	return nil
}

// Restart models the node powering back on after a crash: the store and
// engine reopen from whatever the medium holds, running journal recovery on
// the way up. The caller decides readmission from the returned error. What
// the node held in memory alone does not survive the reboot: session keys
// the monitor installed before the crash and the resumption tickets of
// channels served before it are gone, whether or not the store reopens.
func (s *Server) Restart() error {
	s.mu.Lock()
	clear(s.sessions)
	s.mu.Unlock()
	s.tickets.Clear()
	return s.openStore()
}

// Attest invokes the attestation TA (monitor.StorageAttester).
func (s *Server) Attest(challenge []byte) (*trustzone.AttestationReport, error) {
	return s.nw.Attest(challenge)
}

// Info returns the node's deployment attributes.
func (s *Server) Info() (id, location, fw string) {
	return s.cfg.DeviceID, s.cfg.Location, s.cfg.FWVersion
}

// DB exposes the engine for data loading and the sos configuration.
func (s *Server) DB() *engine.DB {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.db
}

// Medium exposes the raw untrusted medium (tests and attack simulations).
func (s *Server) Medium() *pager.MemDevice { return s.medium }

// StoreSeq returns the secure store's committed transaction sequence — the
// durable ingest position. Each engine batch is exactly one store commit, so
// seq arithmetic tells a recovering ingest pipeline which batches a node holds.
// Plain (non-secure) stores have no commit sequence and report 0.
func (s *Server) StoreSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ss, ok := s.store.(*securestore.Store); ok {
		return ss.Seq()
	}
	return 0
}

// NormalWorldMeasurement is the boot-time measurement the monitor whitelists.
func (s *Server) NormalWorldMeasurement() trustzone.Measurement {
	return s.secure.NormalWorldMeasurement()
}

// InstallSessionKey records a monitor-distributed session key so the host
// can open a bound transport channel.
func (s *Server) InstallSessionKey(sessionID string, key []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sessions[sessionID] = append([]byte(nil), key...)
}

// RevokeSessionKey implements session cleanup on the storage side.
func (s *Server) RevokeSessionKey(sessionID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.sessions, sessionID)
}

// sessionKey fetches an installed key.
func (s *Server) sessionKey(sessionID string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k, ok := s.sessions[sessionID]
	return k, ok
}

// ExecFragment runs one offloaded query fragment on the local engine. The
// result is what the reply encodes: a fragment that merely ships columns of
// one table returns in the encoded form (exec.Result), with no row boxed.
func (s *Server) ExecFragment(sql string) (*exec.Result, error) {
	res, err := s.DB().ExecuteFragment(sql)
	if err != nil {
		return nil, fmt.Errorf("storageengine: offload: %w", err)
	}
	return res, nil
}

// ExecOffload is ExecFragment with the rows boxed, for callers that read
// them in place (the storage-only configuration, tools, tests).
func (s *Server) ExecOffload(sql string) (*exec.Result, error) {
	res, err := s.ExecFragment(sql)
	if err != nil {
		return nil, err
	}
	return res.Boxed()
}

// Serve accepts host connections on ln. Protocol (all frames over the
// session-key-bound secure channel):
//
//	-> "offload"  payload = budgetMicros (8B LE; 2^64-1 = unbudgeted) ++ SQL
//	<- "result"   payload = epoch (8B LE) ++ exec wire encoding
//	<- "budget"   payload = empty (deadline budget exhausted; not executed)
//	<- "error"    payload = message
//
// The first frame's session binding: the channel handshake requires the
// session key named in a plaintext preamble frame ("session" + id), which the
// server looks up before upgrading.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go s.ServeConn(conn)
	}
}

// PreambleTimeout bounds the plaintext session preamble plus handshake: a
// client that connects and then goes silent must not pin a serving goroutine
// forever.
const PreambleTimeout = 5 * time.Second

// MinOffloadBudgetMicros is the smallest remaining deadline budget (µs) an
// offload is admitted with. Below this no fragment can decrypt, execute, and
// ship rows before the host-side slice armed from the same budget expires —
// the work would be wasted TEE cycles. Admission compares against this
// minimum rather than only zero: the host floors sub-µs remainders to 1µs
// (0 means exhausted), so a zero-only check could never fire against a
// well-behaved host and the server-side enforcement would be dead code.
const MinOffloadBudgetMicros = 1000

// ServeConn serves one host connection — exported so single-process
// deployments (and the chaos harness) can drive the full wire protocol over
// in-process pipes, optionally wrapped with fault injectors.
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(PreambleTimeout)) //ironsafe:allow wallclock -- bounding preamble+handshake against silent clients
	// Plaintext preamble: the session id length-prefixed.
	var idLen [1]byte
	if _, err := readFull(conn, idLen[:]); err != nil {
		return
	}
	idBuf := make([]byte, idLen[0])
	if _, err := readFull(conn, idBuf); err != nil {
		return
	}
	sessionID := string(idBuf)
	key, ok := s.sessionKey(sessionID)
	if !ok {
		return // unknown session: refuse to handshake
	}
	rebuildSession := strings.HasPrefix(sessionID, RebuildSessionPrefix)
	sc, err := transport.ServerResuming(conn, key, s.cfg.Meter, s.tickets)
	if err != nil {
		return
	}
	conn.SetDeadline(time.Time{})
	defer sc.Close()
	for {
		typ, payload, err := sc.Recv()
		if err != nil {
			return
		}
		if typ != "bye" && strings.HasPrefix(typ, "rebuild-") != rebuildSession {
			// Gate both ways: rebuild sessions cannot offload queries, and
			// query sessions cannot drive the rebuild verbs.
			sc.Send("error", []byte("command "+typ+" not permitted on this session"))
			continue
		}
		switch typ {
		case "offload":
			// Offload frames carry an 8-byte little-endian deadline-budget
			// prefix (remaining µs; math.MaxUint64 = unbudgeted) ahead of the
			// SQL. The storage node enforces the budget at admission: a
			// fragment arriving with less than the minimum useful execution
			// slice gets a typed "budget" refusal instead of burning TEE
			// cycles on a result the host can no longer use. (The in-flight
			// slice itself is bounded by the channel deadline the host arms
			// from the same budget.)
			if len(payload) < 8 {
				sc.Send("error", []byte("offload frame too short for budget prefix"))
				continue
			}
			budgetMicros := binary.LittleEndian.Uint64(payload[:8])
			if budgetMicros < MinOffloadBudgetMicros {
				sc.Send("budget", nil)
				continue
			}
			res, err := s.ExecFragment(string(payload[8:]))
			if err != nil {
				sc.Send("error", []byte(err.Error()))
				continue
			}
			head, rows, err := exec.ReplyParts(res)
			if err != nil {
				sc.Send("error", []byte(err.Error()))
				continue
			}
			s.cfg.Meter.RowsShipped.Add(int64(res.NumRows()))
			// The reply is stamped with this node's membership epoch; the
			// host rejects any stamp that differs from the cluster's. Its rows
			// are sent straight from the result's buffer, which goes back to
			// the pool once the frame is written: nothing else holds res.
			var epoch [8]byte
			binary.LittleEndian.PutUint64(epoch[:], s.Epoch())
			err = sc.Send("result", epoch[:], head, rows)
			res.Release()
			if errors.Is(err, transport.ErrFrameTooLarge) {
				// Refused before a byte was written: the channel is in step,
				// so the host is told instead of left waiting for the frame.
				sc.Send("too-large", nil)
			}
		case "rebuild-manifest":
			blob, err := s.ExportRebuildManifest()
			if err != nil {
				sc.Send("error", []byte(err.Error()))
				continue
			}
			sc.Send("manifest", blob)
		case "rebuild-read":
			if len(payload) != 8 {
				sc.Send("error", []byte("bad rebuild-read request"))
				continue
			}
			start := binary.LittleEndian.Uint32(payload[0:4])
			count := binary.LittleEndian.Uint32(payload[4:8])
			pages, err := s.ExportRebuildPages(start, count)
			if err != nil {
				sc.Send("error", []byte(err.Error()))
				continue
			}
			sc.Send("pages", encodePageList(pages))
		case "rebuild-begin":
			start, err := s.BeginRebuild(payload)
			if err != nil {
				sc.Send("error", []byte(err.Error()))
				continue
			}
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], start)
			sc.Send("begin-ok", b[:])
		case "rebuild-pages":
			if len(payload) < 4 {
				sc.Send("error", []byte("bad rebuild-pages request"))
				continue
			}
			pages, err := decodePageList(payload[4:])
			if err != nil {
				sc.Send("error", []byte(err.Error()))
				continue
			}
			if err := s.ImportRebuildPages(binary.LittleEndian.Uint32(payload[0:4]), pages); err != nil {
				sc.Send("error", []byte(err.Error()))
				continue
			}
			sc.Send("ok", nil)
		case "rebuild-finalize":
			if err := s.FinalizeRebuild(); err != nil {
				sc.Send("error", []byte(err.Error()))
				continue
			}
			sc.Send("ok", nil)
		case "bye":
			return
		default:
			sc.Send("error", []byte("unknown command "+typ))
		}
	}
}

func readFull(conn net.Conn, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		//ironsafe:allow rawnet -- preamble read; ServeConn arms a PreambleTimeout deadline before calling here
		m, err := conn.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// FetchBlock serves a raw medium block to a remote host (the NFS-like path
// of the host-only configurations). The block moves over the link, so the
// storage side charges its bytes here.
func (s *Server) FetchBlock(idx uint32) ([]byte, error) {
	b, err := s.medium.ReadBlock(idx)
	if err != nil {
		return nil, err
	}
	s.cfg.Meter.BytesSent.Add(int64(len(b)))
	return b, nil
}

// StoreBlock writes a raw medium block on behalf of a remote host.
func (s *Server) StoreBlock(idx uint32, data []byte) error {
	s.cfg.Meter.BytesReceived.Add(int64(len(data)))
	return s.medium.WriteBlock(idx, data)
}

// Blocks reports the medium size for remote mounting.
func (s *Server) Blocks() uint32 { return s.medium.NumBlocks() }

// VerifyStore re-verifies every page of the secure store against the RPMB
// anchor — the audit-time integrity sweep a regulator or operator can
// request. It is a no-op success on non-secure configurations.
func (s *Server) VerifyStore() error {
	if ss := s.SecureStore(); ss != nil {
		return ss.VerifyAll()
	}
	return nil
}
