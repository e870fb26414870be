// Command ironsafe-client submits a query to a running ironsafe-host and
// prints the result table plus the compliance proof metadata.
//
// Usage:
//
//	ironsafe-client -host 127.0.0.1:7103 -psk secret -key Ka \
//	    -q "SELECT count(*) FROM lineitem"
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"

	"ironsafe/cmd/internal/deploy"
	"ironsafe/internal/ctl"
)

func main() {
	hostAddr := flag.String("host", "127.0.0.1:7103", "host engine address")
	psk := flag.String("psk", "", "deployment provisioning key (required)")
	clientKey := flag.String("key", "", "client identity key (required)")
	sql := flag.String("q", "", "SQL query (required)")
	execPolicy := flag.String("exec-policy", "", "execution policy source")
	accessDate := flag.String("access-date", "", "access date YYYY-MM-DD")
	flag.Parse()
	if *psk == "" || *clientKey == "" || *sql == "" {
		fatal("-psk, -key, and -q are required")
	}
	key := sha256.Sum256([]byte(*psk))
	host, err := ctl.Dial(*hostAddr, key[:])
	if err != nil {
		fatal("dialing host: %v", err)
	}
	var resp deploy.QueryResp
	if err := host.Call("query", deploy.QueryReq{
		ClientKey: *clientKey, SQL: *sql,
		ExecPolicy: *execPolicy, AccessDate: *accessDate,
	}, &resp); err != nil {
		fatal("%v", err)
	}
	fmt.Println(strings.Join(resp.Columns, "\t"))
	for _, row := range resp.Rows {
		fmt.Println(strings.Join(row, "\t"))
	}
	fmt.Printf("-- %d rows; session %s; shipped %d rows / %d bytes\n",
		len(resp.Rows), resp.Session, resp.Shipped, resp.Bytes)
	if resp.Rewrite != *sql {
		fmt.Printf("-- policy rewrite: %s\n", resp.Rewrite)
	}
	fmt.Printf("-- proof: query %x under policy %x signed by monitor\n",
		resp.Proof.QueryHash[:8], resp.Proof.PolicyHash[:8])
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ironsafe-client: "+format+"\n", args...)
	os.Exit(1)
}
