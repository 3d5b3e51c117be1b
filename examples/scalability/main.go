// Scalability: grow the hierarchy from 16 to 10240 local controllers and
// watch the virtual-time cost of VM submission stay flat — the property the
// paper attributes to distributing VM management across group managers
// (Section II-F: "the system remains highly scalable with increasing amounts
// of VMs and hosts"). Every row submits one 100-VM wave on the deterministic
// simkernel clock; the GL ranks the wave once and sends each group manager
// its share in a few multi-VM placement requests.
package main

import (
	"fmt"
	"log"
	"time"

	"snooze"
)

func main() {
	fmt.Println("LCs    GMs  submit(100 VMs)  per-VM  placed")
	for _, p := range []struct{ lcs, gms int }{
		{16, 2}, {64, 4}, {144, 8}, {256, 12}, {1024, 32}, {4096, 128}, {10240, 256},
	} {
		c := snooze.NewCluster(snooze.DefaultClusterConfig(snooze.Grid5000Topology(p.lcs, p.gms), int64(p.lcs)))
		c.Settle(30 * time.Second)
		gen := snooze.NewGenerator(1, nil)
		start := c.Kernel.Now()
		resp, err := c.SubmitAndWait(gen.Batch(100), time.Hour)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := c.Kernel.Now() - start
		fmt.Printf("%-6d %-4d %-16v %-7v %d\n",
			p.lcs, p.gms, elapsed.Round(time.Millisecond),
			(elapsed / time.Duration(len(resp.Placed))).Round(time.Microsecond), len(resp.Placed))
	}
}
