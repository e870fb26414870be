// Command ironsafe-storage runs one storage system node: it manufactures and
// trusted-boots a TrustZone device, opens the secure store on its medium,
// optionally loads TPC-H data, and serves two listeners — a control port for
// the monitor (attestation, schema export, session-key installation) and a
// data port for host offload channels.
//
// Usage:
//
//	ironsafe-storage -ctl :7101 -data :7102 -psk deployment-secret -sf 0.002
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"

	"ironsafe/cmd/internal/deploy"
	"ironsafe/internal/adversary"
	"ironsafe/internal/faultinject"
	"ironsafe/internal/ingest"
	"ironsafe/internal/pager"
	"ironsafe/internal/simtime"
	"ironsafe/internal/storageengine"
	"ironsafe/internal/tee/trustzone"
	"ironsafe/internal/tpch"
)

func main() {
	ctlAddr := flag.String("ctl", "127.0.0.1:7101", "control listen address (monitor-facing)")
	dataAddr := flag.String("data", "127.0.0.1:7102", "data listen address (host-facing)")
	psk := flag.String("psk", "", "deployment provisioning key (required)")
	sf := flag.Float64("sf", 0, "TPC-H scale factor to preload (0 = none)")
	location := flag.String("location", "EU", "node location")
	fw := flag.String("fw", "3.4", "firmware version")
	id := flag.String("id", "storage-01", "node id")
	secure := flag.Bool("secure", true, "use the secure store")
	advSeed := flag.Uint64("adversary-seed", 0, "interpose a seeded adversary on the raw medium (0 = off); pair with -adversary-stale to serve captured stale images")
	advStale := flag.Int("adversary-stale", 0, "with -adversary-seed: number of medium reads answered with valid-but-stale captured images; the node must refuse them with a typed freshness/integrity error")
	flag.Parse()
	if *psk == "" {
		fatal("-psk is required")
	}

	vendor, err := trustzone.NewVendor("ironsafe-vendor")
	if err != nil {
		fatal("%v", err)
	}
	var meter simtime.Meter
	cfg := storageengine.Config{
		DeviceID: *id, Vendor: vendor, Location: *location, FWVersion: *fw,
		Secure: *secure, Meter: &meter,
	}
	// Adversarial medium soak: the raw medium is wrapped before the store
	// opens over it, the pristine boot image is captured, and the first
	// -adversary-stale reads of any block that changed since boot return the
	// captured valid old image. The store's Merkle+RPMB freshness anchor must
	// turn every one of those into a typed refusal — a node that answers a
	// query from a stale image has failed the paper's rollback guarantee.
	if *advSeed != 0 {
		adv := faultinject.NewPlan(*advSeed)
		cfg.MediumWrapper = func(node string, dev pager.BlockDevice) pager.BlockDevice {
			wrapped := adversary.WrapDevice(dev, node+":medium", adv)
			wrapped.Capture()
			wrapped.ArmStaleReads(*advStale)
			return wrapped
		}
		fmt.Fprintf(os.Stderr, "ironsafe-storage: ADVERSARIAL MEDIUM SOAK (seed %d, stale budget %d)\n", *advSeed, *advStale)
	}
	srv, err := storageengine.New(cfg)
	if err != nil {
		fatal("%v", err)
	}
	if *sf > 0 {
		fmt.Printf("loading TPC-H sf=%g ...\n", *sf)
		if err := tpch.Load(srv.DB(), tpch.Generate(*sf)); err != nil {
			fatal("loading: %v", err)
		}
	}

	key := sha256.Sum256([]byte(*psk))
	cs := deploy.NewCtlServer("ironsafe-storage", key[:])
	cs.Handle("hello", func([]byte) (any, error) {
		nid, loc, fwv := srv.Info()
		return deploy.HelloResp{ID: nid, Location: loc, FW: fwv, Vendor: "ironsafe-vendor", ROTPK: vendor.ROTPK}, nil
	})
	cs.Handle("attest", func(req []byte) (any, error) {
		var r deploy.AttestReq
		if err := json.Unmarshal(req, &r); err != nil {
			return nil, err
		}
		return srv.Attest(r.Challenge)
	})
	cs.Handle("install-key", func(req []byte) (any, error) {
		var r deploy.InstallKeyReq
		if err := json.Unmarshal(req, &r); err != nil {
			return nil, err
		}
		srv.InstallSessionKey(r.SessionID, r.Key)
		return map[string]bool{"ok": true}, nil
	})
	cs.Handle("revoke-key", func(req []byte) (any, error) {
		var r deploy.InstallKeyReq
		if err := json.Unmarshal(req, &r); err != nil {
			return nil, err
		}
		srv.RevokeSessionKey(r.SessionID)
		return map[string]bool{"ok": true}, nil
	})
	cs.Handle("schemas", func([]byte) (any, error) {
		out := deploy.SchemaResp{Tables: map[string][]deploy.SchemaCol{}}
		for _, name := range srv.DB().TableNames() {
			tab, err := srv.DB().Table(name)
			if err != nil {
				return nil, err
			}
			var cols []deploy.SchemaCol
			for _, c := range tab.Sch.Columns {
				cols = append(cols, deploy.SchemaCol{Name: c.Name, Kind: c.Kind})
			}
			out.Tables[strings.ToLower(name)] = cols
		}
		return out, nil
	})
	cs.Handle("exec", func(req []byte) (any, error) {
		// Administrative statement from the producer path (loading).
		res, err := srv.DB().Execute(string(req))
		if err != nil {
			return nil, err
		}
		return map[string]int{"rows": len(res.Rows)}, nil
	})
	// Durable streaming ingest: DML records stream in over ctl, coalesce
	// into group commits, and ack only once their batch's journal record
	// anchors them on this node's store. This is the producer's loading
	// path, so like "exec" it runs without a policy gate; policy-checked
	// ingest goes through the host, which fronts the monitor.
	pipe, err := ingest.New(ingest.Config{
		Nodes: []ingest.Node{ingest.NewServerNode(srv)},
		Logf:  cs.Logf,
	})
	if err != nil {
		fatal("%v", err)
	}
	defer pipe.Close()
	ingest.RegisterCtl(cs, pipe)

	ctlLn, err := net.Listen("tcp", *ctlAddr)
	if err != nil {
		fatal("control listen: %v", err)
	}
	dataLn, err := net.Listen("tcp", *dataAddr)
	if err != nil {
		fatal("data listen: %v", err)
	}
	fmt.Printf("storage %s up: control %s, data %s (secure=%v)\n", *id, ctlLn.Addr(), dataLn.Addr(), *secure)
	go cs.Serve(ctlLn)
	if err := srv.Serve(dataLn); err != nil {
		fatal("serve: %v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ironsafe-storage: "+format+"\n", args...)
	os.Exit(1)
}
