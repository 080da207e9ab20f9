(* Tests for the OPT baseline: descent, optimality conditions, DAG
   preservation under blocking, known-optimum cases, and the
   step-size pathologies the paper criticises. *)

module Graph = Mdr_topology.Graph
module Fluid = Mdr_fluid
module Gallager = Mdr_gallager.Gallager

let check = Alcotest.(check bool)
let pkt = 4096.0

let diamond () =
  let g = Graph.create ~names:[| "s"; "a"; "b"; "d" |] in
  List.iter
    (fun (x, y) -> Graph.add_duplex g x y ~capacity:10.0e6 ~prop_delay:0.001)
    [ ("s", "a"); ("a", "d"); ("s", "b"); ("b", "d") ];
  g

let diamond_setup rate_bits =
  let g = diamond () in
  let model = Fluid.Evaluate.model g ~packet_size:pkt in
  let traffic =
    Fluid.Traffic.of_pairs_bits ~n:4 ~packet_size:pkt
      ~rate_bits:(fun _ -> rate_bits)
      [ (0, 3) ]
  in
  (g, model, traffic)

let net1_setup load =
  let g = Mdr_topology.Net1.topology () in
  let model = Fluid.Evaluate.model g ~packet_size:pkt in
  let traffic =
    Fluid.Traffic.of_pairs_bits ~n:10 ~packet_size:pkt
      ~rate_bits:(fun i -> load *. (2.0 +. (0.1 *. float_of_int i)) *. 1.0e6)
      (Mdr_topology.Net1.flow_pairs g)
  in
  (g, model, traffic)

let test_spf_params_route_everything () =
  let g, model, _ = net1_setup 1.0 in
  let p = Gallager.spf_params model g in
  check "valid" true (Fluid.Params.validate p = Ok ());
  let all_routed = ref true in
  for node = 0 to 9 do
    for dst = 0 to 9 do
      if node <> dst && not (Fluid.Params.is_routed p ~node ~dst) then
        all_routed := false
    done
  done;
  check "every pair routed" true !all_routed;
  check "single path everywhere" true
    (List.for_all
       (fun dst ->
         List.for_all
           (fun node ->
             node = dst
             || List.length (Fluid.Params.successors p ~node ~dst) = 1)
           (Graph.nodes g))
       (Graph.nodes g))

let test_spf_params_acyclic () =
  let g, model, _ = net1_setup 1.0 in
  let p = Gallager.spf_params model g in
  check "acyclic per dest" true
    (List.for_all
       (fun dst -> Fluid.Params.successor_graph_is_acyclic p ~dst)
       (Graph.nodes g))

let test_opt_splits_symmetric_diamond () =
  (* One 12 Mb/s flow over two identical 10 Mb/s paths: the optimum is
     an exact 50/50 split. *)
  let g, model, traffic = diamond_setup 12.0e6 in
  let r = Gallager.solve ~eta:1.0e4 model g traffic in
  let f_a = Fluid.Flows.link_flow r.flows ~src:0 ~dst:1 in
  let f_b = Fluid.Flows.link_flow r.flows ~src:0 ~dst:2 in
  check "converged" true r.converged;
  check "even split" true (Float.abs (f_a -. f_b) /. (f_a +. f_b) < 0.01);
  check "optimality conditions" true
    (Gallager.check_optimality model r.params r.flows traffic ~tolerance:0.02)

let test_opt_beats_spf_under_overload () =
  let g, model, traffic = diamond_setup 12.0e6 in
  let spf = Gallager.spf_params model g in
  let spf_flows = Fluid.Flows.compute spf traffic in
  let spf_delay = Fluid.Evaluate.average_delay model spf_flows traffic in
  let r = Gallager.solve model g traffic in
  check "opt strictly better" true (r.avg_delay < spf_delay /. 10.0)

let test_opt_descends () =
  let g, model, traffic = net1_setup 1.5 in
  let r = Gallager.solve ~max_iters:200 model g traffic in
  match r.history with
  | [] -> Alcotest.fail "no history"
  | first :: _ ->
    let last = List.nth r.history (List.length r.history - 1) in
    check "cost non-increasing overall" true (last <= first +. 1e-9)

let test_opt_preserves_dags () =
  let g, model, traffic = net1_setup 1.5 in
  let r = Gallager.solve ~max_iters:150 model g traffic in
  check "all DAGs acyclic" true
    (List.for_all
       (fun dst -> Fluid.Params.successor_graph_is_acyclic r.params ~dst)
       (Graph.nodes g));
  check "params valid" true (Fluid.Params.validate r.params = Ok ())

let test_opt_no_worse_than_spf () =
  List.iter
    (fun load ->
      let g, model, traffic = net1_setup load in
      let spf = Gallager.spf_params model g in
      let spf_flows = Fluid.Flows.compute spf traffic in
      let spf_delay = Fluid.Evaluate.average_delay model spf_flows traffic in
      let r = Gallager.solve ~max_iters:300 model g traffic in
      check "opt <= spf" true (r.avg_delay <= spf_delay +. 1e-9))
    [ 0.5; 1.0; 1.5 ]

let test_fixed_eta_oscillates () =
  (* The paper's point about the global constant: a large fixed step
     without safeguards fails to settle — on the symmetric diamond it
     flips all traffic between the two paths forever. *)
  let g, model, traffic = diamond_setup 12.0e6 in
  let fixed = Gallager.solve ~eta:1.0e6 ~adaptive:false ~max_iters:60 model g traffic in
  let adaptive = Gallager.solve ~eta:1.0e6 ~adaptive:true ~max_iters:200 model g traffic in
  check "fixed step stays far from optimum" true
    (fixed.avg_delay > adaptive.avg_delay *. 1.5)

let test_small_eta_converges_slowly () =
  let g, model, traffic = diamond_setup 12.0e6 in
  let slow = Gallager.solve ~eta:50.0 ~max_iters:40 model g traffic in
  let fast = Gallager.solve ~eta:1.0e5 ~max_iters:40 model g traffic in
  (* After the same iteration budget the small step is further from
     balance. *)
  let imbalance r =
    let a = Fluid.Flows.link_flow r.Gallager.flows ~src:0 ~dst:1 in
    let b = Fluid.Flows.link_flow r.Gallager.flows ~src:0 ~dst:2 in
    Float.abs (a -. b)
  in
  check "slow eta lags" true (imbalance slow > imbalance fast)

let test_opt_with_custom_init () =
  let g, model, traffic = diamond_setup 6.0e6 in
  let init = Gallager.spf_params model g in
  let r = Gallager.solve ~init model g traffic in
  check "runs from custom init" true (Float.is_finite r.avg_delay)

let test_marginal_distance_relation () =
  (* Eq. 4: at OPT's output, each router's marginal distance equals the
     phi-weighted sum of (link marginal + successor marginal). *)
  let g, model, traffic = net1_setup 1.0 in
  let r = Gallager.solve ~max_iters:100 model g traffic in
  let dst = List.hd (Fluid.Traffic.destinations traffic) in
  let delta = Fluid.Evaluate.marginal_distances model r.params r.flows ~dst in
  List.iter
    (fun node ->
      if node <> dst && Fluid.Params.is_routed r.params ~node ~dst then begin
        let expected =
          List.fold_left
            (fun acc (via, frac) ->
              acc
              +. frac
                 *. (Fluid.Evaluate.link_cost model r.flows ~src:node ~dst:via
                    +. delta.(via)))
            0.0
            (Fluid.Params.fractions r.params ~node ~dst)
        in
        check "Eq. 4 holds" true (Float.abs (expected -. delta.(node)) < 1e-9)
      end)
    (Graph.nodes g)

let test_opt_matches_brute_force () =
  (* Grid-search the diamond's single degree of freedom (the split
     alpha at s) and confirm OPT finds the same minimum. *)
  let g, model, traffic = diamond_setup 9.0e6 in
  let cost_of alpha =
    let p = Fluid.Params.create g in
    Fluid.Params.set_fractions p ~node:0 ~dst:3 [ (1, alpha); (2, 1.0 -. alpha) ];
    Fluid.Params.set_single p ~node:1 ~dst:3 ~via:3;
    Fluid.Params.set_single p ~node:2 ~dst:3 ~via:3;
    let flows = Fluid.Flows.compute p traffic in
    Fluid.Evaluate.total_cost model flows
  in
  let best = ref infinity in
  for i = 1 to 999 do
    let alpha = float_of_int i /. 1000.0 in
    best := Float.min !best (cost_of alpha)
  done;
  let r = Gallager.solve model g traffic in
  check "OPT within 0.1% of brute force" true
    (r.total_cost <= !best *. 1.001)

let test_opt_brute_force_two_flows () =
  (* Two flows in opposite directions: four independent splits; grid
     search coarsely and require OPT at least as good. *)
  let g = diamond () in
  let model = Fluid.Evaluate.model g ~packet_size:pkt in
  let traffic =
    Fluid.Traffic.of_pairs_bits ~n:4 ~packet_size:pkt
      ~rate_bits:(fun _ -> 8.0e6)
      [ (0, 3); (3, 0) ]
  in
  let cost_of a b =
    let p = Fluid.Params.create g in
    Fluid.Params.set_fractions p ~node:0 ~dst:3 [ (1, a); (2, 1.0 -. a) ];
    Fluid.Params.set_single p ~node:1 ~dst:3 ~via:3;
    Fluid.Params.set_single p ~node:2 ~dst:3 ~via:3;
    Fluid.Params.set_fractions p ~node:3 ~dst:0 [ (1, b); (2, 1.0 -. b) ];
    Fluid.Params.set_single p ~node:1 ~dst:0 ~via:0;
    Fluid.Params.set_single p ~node:2 ~dst:0 ~via:0;
    let flows = Fluid.Flows.compute p traffic in
    Fluid.Evaluate.total_cost model flows
  in
  let best = ref infinity in
  for i = 1 to 99 do
    for j = 1 to 99 do
      best :=
        Float.min !best (cost_of (float_of_int i /. 100.0) (float_of_int j /. 100.0))
    done
  done;
  let r = Gallager.solve model g traffic in
  check "OPT within 0.5% of 2-flow brute force" true
    (r.total_cost <= !best *. 1.005)

let test_second_order_faster () =
  (* The Bertsekas-Gallager acceleration: same optimum with a
     dimensionless step, in far fewer iterations. *)
  let g, model, traffic = net1_setup 1.5 in
  let first = Gallager.solve ~eta:1.0e4 model g traffic in
  let second = Gallager.solve ~second_order:true ~eta:1.0 model g traffic in
  check "same optimum" true
    (Float.abs (first.avg_delay -. second.avg_delay) /. first.avg_delay < 0.01);
  check "fewer iterations" true (second.iterations < first.iterations);
  check "converged" true second.converged

let test_second_derivative_exposed () =
  let dm = Fluid.Delay.create ~capacity:1000.0 ~prop_delay:0.001 () in
  (* D'' = 2c/(c-f)^3; at f = 0: 2/c^2. *)
  Alcotest.(check (float 1e-12)) "at zero" (2.0 /. 1.0e6) (Fluid.Delay.second dm 0.0);
  check "increasing" true (Fluid.Delay.second dm 500.0 > Fluid.Delay.second dm 100.0);
  check "finite past capacity" true (Float.is_finite (Fluid.Delay.second dm 2000.0))

(* --- Infeasible-demand degradation ------------------------------------ *)

let test_feasible_load_not_degraded () =
  let g, model, traffic = diamond_setup 4.0e6 in
  let r = Gallager.solve model g traffic in
  check "status feasible" true
    (match r.Gallager.status with Gallager.Feasible -> true | Gallager.Degraded _ -> false);
  check "admitted is the offered matrix" true
    (Float.abs
       (Fluid.Traffic.rate r.Gallager.admitted ~src:0 ~dst:3
       -. Fluid.Traffic.rate traffic ~src:0 ~dst:3)
    < 1e-9);
  check "converged" true r.Gallager.converged

let test_degrades_infeasible_demand () =
  (* 40 Mb/s offered into a diamond whose two disjoint paths carry
     20 Mb/s total: the solver must shed about half, never diverge. *)
  let g, model, traffic = diamond_setup 40.0e6 in
  let r = Gallager.solve ~max_iters:300 model g traffic in
  (match r.Gallager.status with
  | Gallager.Feasible -> check "must be degraded" true false
  | Gallager.Degraded d ->
    check "admitted fraction positive" true (d.Gallager.admitted_fraction > 0.0);
    check "admitted fraction <= min cut" true
      (d.Gallager.admitted_fraction <= 0.5 +. 1e-6);
    check "shed covers every offered flow" true
      (List.for_all
         (fun ((_ : Fluid.Traffic.flow), s) ->
           Float.abs (s +. d.Gallager.admitted_fraction -. 1.0) < 1e-9)
         d.Gallager.shed
      && d.Gallager.shed <> []);
    check "per-destination fractions reported" true
      (d.Gallager.per_destination <> []));
  check "admitted matrix actually scaled" true
    (Fluid.Traffic.rate r.Gallager.admitted ~src:0 ~dst:3
    < Fluid.Traffic.rate traffic ~src:0 ~dst:3);
  check "delay finite" true (Float.is_finite r.Gallager.avg_delay);
  check "costs finite" true (Fluid.Evaluate.costs_finite model r.Gallager.flows)

let test_degrade_opt_out_stays_finite () =
  (* With degrade:false the caller gets the raw solve on the offered
     matrix; the saturation-safe pipeline still keeps every cost and
     the delay finite even though flows run past capacity. *)
  let g, model, traffic = diamond_setup 40.0e6 in
  let r = Gallager.solve ~degrade:false ~max_iters:200 model g traffic in
  check "status reported feasible (unchecked)" true
    (match r.Gallager.status with Gallager.Feasible -> true | Gallager.Degraded _ -> false);
  check "costs finite past capacity" true
    (Fluid.Evaluate.costs_finite model r.Gallager.flows);
  check "delay finite" true (Float.is_finite r.Gallager.avg_delay)

let test_degradation_on_jointly_infeasible_matrix () =
  (* NET1 at 8x nominal load: multiple commodities compete for shared
     links, exercising the min-cut pre-scale and (when that is only
     jointly necessary) the non-convergence escalation. *)
  let g, model, traffic = net1_setup 8.0 in
  let r = Gallager.solve ~max_iters:150 model g traffic in
  (match r.Gallager.status with
  | Gallager.Feasible -> check "must be degraded" true false
  | Gallager.Degraded d ->
    check "fraction in (0,1)" true
      (d.Gallager.admitted_fraction > 0.0 && d.Gallager.admitted_fraction < 1.0);
    check "reason tagged" true
      (match d.Gallager.reason with `Min_cut | `No_convergence -> true));
  check "delay finite" true (Float.is_finite r.Gallager.avg_delay);
  check "costs finite" true (Fluid.Evaluate.costs_finite model r.Gallager.flows)

(* --- golden digests ---------------------------------------------------- *)

(* The solver inputs the golden digests pin: CAIRN with its paper flows
   at load 1.0, and a BA-20 network of identical links (so equal-cost
   paths exist for ECMP) with 30 fixed random flows. *)
let golden_inputs () =
  let cairn =
    let g = Mdr_topology.Cairn.topology () in
    let traffic =
      Fluid.Traffic.of_pairs_bits ~n:(Graph.node_count g) ~packet_size:pkt
        ~rate_bits:(fun i -> (2.0 +. (0.1 *. float_of_int i)) *. 1.0e6)
        (Mdr_topology.Cairn.flow_pairs g)
    in
    ("CAIRN", g, traffic)
  in
  let ba20 =
    let rng = Mdr_util.Rng.create ~seed:20 in
    let g =
      Mdr_topology.Generators.barabasi_albert ~rng ~n:20 ~m:2
        ~capacity_range:(10.0e6, 10.0e6) ~delay_range:(0.005, 0.005) ()
    in
    let flows =
      List.init 30 (fun _ ->
          let src = Mdr_util.Rng.int rng ~bound:20 in
          let dst = (src + 1 + Mdr_util.Rng.int rng ~bound:19) mod 20 in
          { Fluid.Traffic.src; dst; rate = Mdr_util.Rng.uniform rng ~lo:0.3e6 ~hi:1.0e6 /. pkt })
    in
    ("BA-20", g, Fluid.Traffic.of_flows ~n:20 flows)
  in
  [ cairn; ba20 ]

(* MD5 over the [%h] (exact hex) image of a result's numbers, so a
   digest moves with any reordered float sum. *)
let golden_digest ~total_cost ~iterations ~delays =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%h|%d|" total_cost iterations;
  List.iter (fun (_, d) -> Printf.bprintf b "%h;" d) delays;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Digests recorded with the hashtable-keyed fluid core that the
   edge-indexed arrays replaced. *)
let gallager_golden =
  [
    ( "adaptive",
      (fun m g t -> Gallager.solve m g t),
      [ ("CAIRN", "614b6c4dbbc36b11a428806c29bfcdf8"); ("BA-20", "33454a77873e84a6f0c96fe984366e18") ] );
    ( "fixed eta",
      (fun m g t -> Gallager.solve ~adaptive:false ~eta:2.0e3 ~max_iters:150 m g t),
      [ ("CAIRN", "978b6fa34ea3e08ee473d642c4834313"); ("BA-20", "bdb950662177c2e5b94a04bf8339bc43") ] );
    ( "second order",
      (fun m g t -> Gallager.solve ~second_order:true ~eta:1.0 m g t),
      [ ("CAIRN", "92da9666fb7df6cec51c95836491d8ce"); ("BA-20", "4526916e7d3d18d296c36151560cec58") ] );
  ]

let test_golden_digests () =
  List.iter
    (fun (name, g, traffic) ->
      let model = Fluid.Evaluate.model g ~packet_size:pkt in
      List.iter
        (fun (variant, solve, digests) ->
          let r = solve model g traffic in
          let delays = Fluid.Evaluate.per_flow_delays model r.Gallager.params r.flows traffic in
          let got =
            golden_digest ~total_cost:r.total_cost ~iterations:r.iterations ~delays
          in
          Alcotest.(check string) (variant ^ " on " ^ name) (List.assoc name digests) got)
        gallager_golden)
    (golden_inputs ())

let suite =
  [
    Alcotest.test_case "spf_params: routes every pair" `Quick test_spf_params_route_everything;
    Alcotest.test_case "spf_params: acyclic" `Quick test_spf_params_acyclic;
    Alcotest.test_case "opt: symmetric diamond splits 50/50" `Quick test_opt_splits_symmetric_diamond;
    Alcotest.test_case "opt: beats SPF under overload" `Quick test_opt_beats_spf_under_overload;
    Alcotest.test_case "opt: cost descends" `Quick test_opt_descends;
    Alcotest.test_case "opt: blocking preserves DAGs" `Quick test_opt_preserves_dags;
    Alcotest.test_case "opt: never worse than SPF" `Slow test_opt_no_worse_than_spf;
    Alcotest.test_case "opt: fixed large eta oscillates (paper's critique)" `Quick test_fixed_eta_oscillates;
    Alcotest.test_case "opt: small eta converges slowly" `Quick test_small_eta_converges_slowly;
    Alcotest.test_case "opt: custom init" `Quick test_opt_with_custom_init;
    Alcotest.test_case "opt: marginal distances satisfy Eq. 4" `Quick test_marginal_distance_relation;
    Alcotest.test_case "opt: matches brute-force optimum" `Quick test_opt_matches_brute_force;
    Alcotest.test_case "opt: 2-flow brute force" `Slow test_opt_brute_force_two_flows;
    Alcotest.test_case "opt: second-order acceleration" `Quick test_second_order_faster;
    Alcotest.test_case "delay: second derivative" `Quick test_second_derivative_exposed;
    Alcotest.test_case "degrade: feasible load untouched" `Quick test_feasible_load_not_degraded;
    Alcotest.test_case "degrade: sheds infeasible demand" `Quick test_degrades_infeasible_demand;
    Alcotest.test_case "degrade: opt-out stays finite" `Quick test_degrade_opt_out_stays_finite;
    Alcotest.test_case "degrade: jointly infeasible matrix" `Slow test_degradation_on_jointly_infeasible_matrix;
    Alcotest.test_case "golden digests are byte-identical" `Quick test_golden_digests;
  ]
