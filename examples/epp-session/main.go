// EPP session: one domain's life at a registry over EPP on loopback TCP
// (RFC 5730/5731/5734), the protocol registrars provision through. A .com
// registry serves EPP as regsec-epp does; a registrar logs in, creates a
// domain, reads it back, renews it and deletes it.
//
// Run with: go run ./examples/epp-session
package main

import (
	"fmt"
	"log"
	"net"

	"securepki.org/registrarsec/internal/ecosystem"
	"securepki.org/registrarsec/internal/epp"
	"securepki.org/registrarsec/internal/registry"
)

func main() {
	com, err := registry.New(registry.Config{TLD: "com", NSHost: ecosystem.TLDServerAddr("com"), AcceptsDS: true})
	if err != nil {
		log.Fatal(err)
	}
	com.Accredit("acme", "s3cret")
	srv := &epp.Server{Session: com.ServeEPP}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf(".com registry serving EPP on %s\n", srv.Addr())

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	c, err := epp.NewClient(conn)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	must("login as acme", c.Login("acme", "s3cret"))

	must("<create> example.com", c.CreateDomain("example.com", []string{"ns1.example.net"}, nil))
	info, err := c.Info("example.com")
	must("<info>", err)
	fmt.Printf("    registered %s, expires %s\n", info.Created, info.Expires)
	must("<renew>", c.Renew("example.com"))
	must("<delete>", c.DeleteDomain("example.com"))
}

// must prints a step and stops the program if it failed.
func must(step string, err error) {
	if err != nil {
		log.Fatalf("%s: %v", step, err)
	}
	fmt.Println(step + ": ok")
}
