// Smart campus: characteristic-based trust inference and transitivity at
// network scale.
//
// A campus deploys a social IoT over the (generated) Facebook-like social
// graph. Devices have experience with single-capability tasks (GPS
// sampling, image capture); a new composite task — real-time traffic
// monitoring, needing both — arrives. The example compares how many
// suitable trustees a requester can discover under the traditional,
// conservative, and aggressive trust-transfer methods, reproducing the
// paper's motivating scenario (§4.2, §4.3).
//
// Run with:
//
//	go run ./examples/smartcampus
package main

import (
	"fmt"
	"log"

	"siot"
	"siot/internal/core"
	"siot/internal/rng"
	"siot/internal/sim"
	"siot/internal/task"
)

func main() {
	const seed = 11
	net := siot.GenerateNetwork(siot.FacebookProfile(), seed)
	fmt.Printf("campus network: %d devices, %d social links\n",
		net.Graph.NumNodes(), net.Graph.NumEdges())

	p := sim.NewPopulation(net, sim.DefaultPopulationConfig(seed))
	r := rng.New(seed, "smartcampus")

	// Seed single-capability experience across the network: every node has
	// accomplished two tasks drawn from a universe over {gps, image,
	// velocity, temperature} characteristics, and its neighbors remember.
	setup := sim.DefaultTransitivitySetup(4, r)
	sim.SeedExperience(p, setup, seed)

	// The composite request: traffic monitoring = GPS + image.
	traffic := task.Uniform(task.Type(len(setup.Universe.Tasks)), task.CharGPS, task.CharImage)

	// Freeze the campus's trust records and search the snapshot via a memo.
	requester := p.Trustors[0]
	view, err := p.RoundViewFrom(nil, 1, nil)
	if err != nil {
		log.Fatal(err)
	}
	searcher := p.Searcher(setup.MaxDepth, setup.Omega1, setup.Omega2)
	memo := core.NewEdgeMemoPooled(view.TrustView, p.Config().Update.Norm, 1, nil)
	var res core.SearchResult
	for _, model := range []core.TrustModel{core.Traditional, core.Conservative, core.Aggressive} {
		memo.RequireModel(model, []task.Task{traffic})
		if err := searcher.FindViewModelInto(&res, view.TrustView, memo, requester, traffic, model); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s transfer:\n", model.Name())
		fmt.Printf("  potential trustees found: %d (interrogated %d nodes)\n",
			len(res.Candidates), res.Inquired)
		if best, ok := res.Best(); ok {
			cap := p.Agent(best.ID).Behavior.TaskCompetence(traffic)
			fmt.Printf("  best candidate: device %d, transferred TW %.3f (true capability %.3f)\n",
				best.ID, best.TW, cap)
		} else {
			fmt.Println("  no candidate — the request would go unserved")
		}
	}

	fmt.Println("\nWhy: the traditional method only transfers trust for the exact")
	fmt.Println("task type, and 'traffic monitoring' is new to everyone. The")
	fmt.Println("characteristic-based methods reuse GPS and image experience; the")
	fmt.Println("aggressive method even assembles the two capabilities over")
	fmt.Println("different recommendation paths (Fig. 5b of the paper).")
}
