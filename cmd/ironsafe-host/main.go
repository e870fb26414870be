// Command ironsafe-host runs the host engine as a standalone service: it
// loads the host enclave, registers with the trusted monitor (platform
// provisioning + quote), fetches the storage catalog, and serves client
// queries — each authorized by the monitor, offloaded to the storage node
// over a session-key-bound channel, and finished inside the enclave.
//
// Usage:
//
//	ironsafe-host -listen :7103 -psk secret \
//	    -monitor 127.0.0.1:7100 -storage-ctl 127.0.0.1:7101
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
	"ironsafe/internal/ctl"
	"ironsafe/internal/hostengine"
	"ironsafe/internal/monitor"
	"ironsafe/internal/partition"
	"ironsafe/internal/resilience"
	"ironsafe/internal/schema"
	"ironsafe/internal/simtime"
	"ironsafe/internal/tee/sgx"
	"ironsafe/internal/transport"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7103", "client-facing listen address")
	psk := flag.String("psk", "", "deployment provisioning key (required)")
	monitorAddr := flag.String("monitor", "127.0.0.1:7100", "monitor control address")
	storageCtl := flag.String("storage-ctl", "127.0.0.1:7101", "storage control address (schema fetch)")
	location := flag.String("location", "EU", "host location")
	fw := flag.String("fw", "2.1", "host firmware version")
	advSeed := flag.Uint64("adversary-seed", 0, "run offload channels under a seeded MITM soak (0 = off); queries must be answered correctly or refused with a typed error")
	flag.Parse()
	if *psk == "" {
		fatal("-psk is required")
	}
	key := sha256.Sum256([]byte(*psk))

	var adv *adversary.Engine
	if *advSeed != 0 {
		adv = adversary.NewEngine(*advSeed, adversary.SoakRules()...)
		fmt.Fprintf(os.Stderr, "ironsafe-host: ADVERSARIAL SOAK on storage offload channels (seed %d)\n", *advSeed)
	}

	var meter simtime.Meter
	// One ticket store for every query's channel: each channel to a storage
	// node resumes the last one's and leaves the next, so after the first
	// query no channel pays an X25519 exchange, and the storage node holds one
	// live ticket for this host rather than one per query.
	tickets := transport.NewTicketStore()
	dialCfg := resilience.Config{Sleep: resilience.RealSleep}.WithDefaults()
	platform, err := sgx.NewPlatform("host-platform", nil)
	if err != nil {
		fatal("%v", err)
	}
	host, err := hostengine.New(hostengine.Config{
		ID: "host-1", Location: *location, FWVersion: *fw,
		Platform: platform, Secure: true, Meter: &meter,
	})
	if err != nil {
		fatal("%v", err)
	}

	mon, err := ctl.Dial(*monitorAddr, key[:])
	if err != nil {
		fatal("dialing monitor: %v", err)
	}
	// Provision the platform key (the Intel manufacturing flow), then
	// attest the enclave.
	if err := mon.Call("register-platform", deploy.RegisterPlatformReq{
		PlatformID: "host-platform",
		PublicKey:  platform.AttestationPublicKey(),
	}, nil); err != nil {
		fatal("platform provisioning: %v", err)
	}
	quote, err := host.Quote(monitor.HostKeyDigest(host.TransportPub()))
	if err != nil {
		fatal("%v", err)
	}
	var reg deploy.RegisterHostResp
	if err := mon.Call("register-host", deploy.RegisterHostReq{
		Info:         monitor.NodeInfo{ID: "host-1", Location: *location, FW: *fw},
		Quote:        quote,
		TransportPub: host.TransportPub(),
	}, &reg); err != nil {
		fatal("host attestation: %v", err)
	}
	if !monitor.VerifyHostCert(reg.MonitorPub, "host-1", host.TransportPub(), reg.Cert) {
		fatal("monitor-issued certificate does not verify")
	}
	fmt.Println("host attested by monitor")

	// Fetch the storage catalog for the partitioner.
	storage, err := ctl.Dial(*storageCtl, key[:])
	if err != nil {
		fatal("dialing storage control: %v", err)
	}
	var schemas deploy.SchemaResp
	if err := storage.Call("schemas", nil, &schemas); err != nil {
		fatal("fetching schemas: %v", err)
	}
	sm := partition.SchemaMap{}
	for name, cols := range schemas.Tables {
		s := schema.New()
		for _, c := range cols {
			s.Columns = append(s.Columns, schema.Col(c.Name, c.Kind))
		}
		sm[strings.ToLower(name)] = s
	}
	host.SetSchemas(sm)

	cs := deploy.NewCtlServer("ironsafe-host", key[:])
	cs.Handle("query", func(req []byte) (any, error) {
		var r deploy.QueryReq
		if err := json.Unmarshal(req, &r); err != nil {
			return nil, err
		}
		var auth deploy.AuthorizeResp
		if err := mon.Call("authorize", monitor.AuthRequest{
			Database: "db", ClientKey: r.ClientKey, SQL: r.SQL,
			ExecPolicy: r.ExecPolicy, AccessDate: r.AccessDate, HostID: "host-1",
		}, &auth); err != nil {
			return nil, err
		}
		defer mon.Call("end-session", deploy.InstallKeyReq{SessionID: auth.Auth.SessionID}, nil)
		if len(auth.Auth.StorageIDs) == 0 {
			return nil, fmt.Errorf("no compliant storage node")
		}
		nodeID := auth.Auth.StorageIDs[0]
		conn, err := resilience.DialTCP(auth.StorageDataAddr, dialCfg)
		if err != nil {
			return nil, err
		}
		if adv != nil {
			// The seeded MITM sits between the TCP dial and the handshake, so
			// every preamble, first flight and AEAD frame of the session
			// crosses it; it keys its attack streams by node id, so a soak run
			// is reproducible from the seed alone.
			conn = adversary.WrapConn(conn, nodeID, adversary.StorageProfile, adv)
		}
		node, err := hostengine.NewRemoteNode(conn, nodeID, auth.Auth.SessionID, auth.Auth.SessionKey, &meter, tickets, nil, dialCfg)
		if err != nil {
			return nil, err
		}
		defer node.Close()
		res, outcome, err := host.ExecuteSplit(auth.Auth.RewrittenSQL, []hostengine.StorageNode{node})
		if err != nil {
			return nil, err
		}
		out := deploy.QueryResp{
			Proof:   auth.Auth.Proof,
			Session: auth.Auth.SessionID,
			Shipped: outcome.RowsShipped,
			Bytes:   outcome.BytesShipped,
			Rewrite: auth.Auth.RewrittenSQL,
		}
		for _, c := range res.Sch.Columns {
			out.Columns = append(out.Columns, c.Name)
		}
		for _, row := range res.Rows {
			r := make([]string, len(row))
			for i, v := range row {
				r[i] = v.String()
			}
			out.Rows = append(out.Rows, r)
		}
		return out, nil
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal("listen: %v", err)
	}
	fmt.Printf("host up on %s\n", ln.Addr())
	if err := cs.Serve(ln); err != nil {
		fatal("serve: %v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ironsafe-host: "+format+"\n", args...)
	os.Exit(1)
}
