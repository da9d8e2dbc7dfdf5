// Command siot-sim runs ad-hoc social-IoT trust simulations from flags: it
// generates one of the evaluation networks, assigns roles, and plays
// delegation rounds under a selectable combination of model features
// (mutuality threshold, trust model, delegation strategy),
// printing the resulting rates.
//
// Usage:
//
//	siot-sim -net facebook -rounds 40 -theta 0.3
//	siot-sim -net twitter -mode transitivity -model conservative -chars 5
//	siot-sim -net twitter -mode transitivity -model hellinger-mf
//	siot-sim -net gplus -mode netprofit -iters 1000 -strategy netprofit
//	siot-sim -rounds 150 -theta 0 -attack onoff -attackers 25
//	siot-sim -rounds 150 -theta 0 -attack badmouth -collude
//
// All modes run on the parallel simulation engine; -parallel sets the
// worker-pool width (0 = GOMAXPROCS) and never changes the printed rates.
//
// In the default mutuality mode a non-empty -attack runs the attack
// scenario (experiments.RunAttack) on the chosen network instead: the
// rounds are played twice, with an honest ring and with -attackers trustees
// (default 30) running the adversary model, coordinated as a collusion ring
// under -collude. It prints the scenario's resilience table and charts, and
// any failed shape check on stderr. The registered tables and figures run
// through siot-bench -exp.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"

	"siot/internal/adversary"
	"siot/internal/cliutil"
	"siot/internal/core"
	"siot/internal/experiments"
	"siot/internal/rng"
	"siot/internal/sim"
	"siot/internal/socialgen"
	"siot/internal/stats"
	"siot/internal/task"
)

func main() {
	var (
		netName   = flag.String("net", "facebook", "network profile: facebook, gplus, twitter")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		mode      = flag.String("mode", "mutuality", "simulation mode: mutuality, transitivity, netprofit")
		list      = flag.Bool("list", false, "list attack and trust models, then exit")
		rounds    = flag.Int("rounds", 40, "mutuality: delegation rounds")
		theta     = flag.Float64("theta", 0.3, "mutuality: reverse-evaluation threshold")
		modelName = flag.String("model", "aggressive", "transitivity: registered trust model (see -list)")
		chars     = flag.Int("chars", 5, "transitivity: number of characteristics in the network")
		iters     = flag.Int("iters", 1000, "netprofit: iterations")
		strategy  = flag.String("strategy", "netprofit", "netprofit: successrate or netprofit")
		parallel  = flag.Int("parallel", 0, "worker-pool width (0 = GOMAXPROCS, 1 = serial); outputs are identical at any width")
		attack    = flag.String("attack", "", "adversary model: badmouth, ballot, selfpromo, onoff, whitewash (empty = none)")
		attackers = flag.Int("attackers", 0, "attack ring size (trustees turned attackers; 0 = the scenario default)")
		collude   = flag.Bool("collude", false, "coordinate the attackers as a collusion ring")
	)
	flag.Parse()

	var modeErr error
	if !slices.Contains([]string{"mutuality", "transitivity", "netprofit"}, *mode) {
		modeErr = fmt.Errorf("unknown mode %q", *mode)
	}
	mdl, modelErr := core.ParseModel(*modelName)
	strat, ok := strategies[*strategy]
	var strategyErr error
	if !ok {
		strategyErr = fmt.Errorf("unknown strategy %q", *strategy)
	}
	var thetaErr error
	if math.IsNaN(*theta) || math.IsInf(*theta, 0) {
		thetaErr = fmt.Errorf("-theta must be finite, got %v", *theta)
	}
	for _, err := range []error{
		modeErr, modelErr, strategyErr, thetaErr,
		cliutil.ValidateParallel(*parallel),
		cliutil.ValidatePositive("-rounds", *rounds),
		cliutil.ValidatePositive("-chars", *chars),
		cliutil.ValidatePositive("-iters", *iters),
		cliutil.ValidateAttackFlags(*attack, *attackers, *collude),
	} {
		if err != nil {
			cliutil.Usage("siot-sim", err)
		}
	}

	if *list {
		fmt.Println("attack models:", adversary.Names())
		fmt.Println("trust models:", core.ModelNames())
		return
	}

	atk, err := adversary.Parse(*attack)
	if err != nil {
		cliutil.Usage("siot-sim", err)
	}
	if *collude && atk != nil {
		atk = adversary.Collusion{Of: atk}
	}

	profile, err := socialgen.ProfileByName(*netName)
	if err != nil {
		cliutil.Usage("siot-sim", err)
	}
	net := socialgen.Generate(profile, *seed)
	fmt.Printf("network %s: %d nodes, %d edges\n", profile.Name, net.Graph.NumNodes(), net.Graph.NumEdges())

	switch *mode {
	case "mutuality":
		if atk != nil {
			cfg := experiments.DefaultAttackConfig(atk)
			cfg.Network, cfg.Rounds, cfg.Theta = profile.Name, *rounds, *theta
			if *attackers > 0 {
				cfg.Attackers = *attackers
			}
			res := experiments.RunAttack(experiments.Options{Seed: *seed, Parallelism: *parallel}, cfg)
			if err := experiments.Render(os.Stdout, res, true); err != nil {
				cliutil.Runtime("siot-sim", err)
			}
			for _, e := range res.ShapeCheck() {
				fmt.Fprintln(os.Stderr, "shape check:", e)
			}
			return
		}
		cfg := sim.DefaultPopulationConfig(*seed)
		cfg.Theta = *theta
		cfg.Parallelism = *parallel
		eng := sim.NewEngine(sim.NewPopulation(net, cfg), "cli-mutuality")
		tk := task.Uniform(1, task.CharCompute)
		var c sim.MutualityCounters
		for i := 0; i < *rounds; i++ {
			eng.MutualityRound(i, tk, &c)
		}
		fmt.Printf("rounds=%d theta=%.2f\n", *rounds, *theta)
		fmt.Printf("success rate     %.3f\n", c.SuccessRate())
		fmt.Printf("unavailable rate %.3f\n", c.UnavailableRate())
		fmt.Printf("abuse rate       %.3f\n", c.AbuseRate())

	case "transitivity":
		cfg := sim.DefaultPopulationConfig(*seed)
		cfg.Parallelism = *parallel
		p := sim.NewPopulation(net, cfg)
		r := rng.New(*seed, "cli-transitivity")
		setup := sim.DefaultTransitivitySetup(*chars, r)
		sim.SeedExperience(p, setup, *seed)
		st := sim.NewEngine(p, "cli-transitivity").TransitivityRunModel(setup, mdl, *seed)
		fmt.Printf("model=%s chars=%d\n", mdl.Name(), *chars)
		fmt.Printf("success rate       %.3f\n", st.SuccessRate())
		fmt.Printf("unavailable rate   %.3f\n", st.UnavailableRate())
		fmt.Printf("potential trustees %.2f\n", st.AvgPotentialTrustees())
		inq := make([]float64, len(st.InquiredPerTrustor))
		for i, v := range st.InquiredPerTrustor {
			inq[i] = float64(v)
		}
		fmt.Printf("inquired nodes     mean %.1f, p90 %.0f\n", stats.Mean(inq), stats.Quantile(inq, 0.9))

	case "netprofit":
		cfg := sim.DefaultPopulationConfig(*seed)
		cfg.Parallelism = *parallel
		p := sim.NewPopulation(net, cfg)
		series := sim.NewEngine(p, "cli-netprofit").NetProfitRun(*iters, strat, *seed)
		fmt.Printf("strategy=%s iters=%d\n", strat, *iters)
		fmt.Printf("initial profit (first 10%%)  %.3f\n", stats.Mean(series[:len(series)/10+1]))
		fmt.Printf("converged profit (last 33%%) %.3f\n", stats.Mean(series[len(series)*2/3:]))
	}
}

// strategies maps the -strategy values to the Fig. 13 decision rules.
var strategies = map[string]sim.Strategy{
	"successrate": sim.StrategySuccessRate,
	"netprofit":   sim.StrategyNetProfit,
}
