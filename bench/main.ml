(* The benchmark harness.

   Part 1 regenerates every table/figure of the paper's evaluation
   (Figures 8-14, the dynamic-traffic study) plus the ablations listed
   in DESIGN.md, printing the same series the paper plots together with
   shape checks.

   Part 2 runs Bechamel micro-benchmarks of the core algorithmic
   pieces, one [Test.make] per component, so performance regressions in
   the library itself are visible. *)

module Experiments = Mdr_experiments.Experiments
module Workload = Mdr_experiments.Workload
open Bechamel
open Toolkit

let run_experiments () =
  let failures = ref 0 in
  List.iter
    (fun (id, f) ->
      Printf.printf "### %s\n%!" id;
      let t0 = Unix.gettimeofday () in
      let outcome = f () in
      let dt = Unix.gettimeofday () -. t0 in
      print_endline outcome.Experiments.rendered;
      List.iter
        (fun (label, ok) ->
          if not ok then incr failures;
          Printf.printf "  [%s] %s\n" (if ok then "PASS" else "FAIL") label)
        outcome.Experiments.checks;
      Printf.printf "  (%.1fs)\n\n%!" dt)
    (Experiments.all ());
  !failures

(* --- Overload scenario ------------------------------------------------- *)

(* Push CAIRN to 0.8x/1.0x/1.2x of its feasible envelope and run the
   full overload audit at each point, timing it. Emits
   BENCH_overload.json so the wall-clock and delay/shed trajectory is
   machine-trackable across commits. *)
let overload_scenario () =
  let module Overload = Mdr_faults.Overload in
  let module Traffic = Mdr_fluid.Traffic in
  let module Feasibility = Mdr_fluid.Feasibility in
  let w = Workload.cairn ~load:1.0 in
  let base = Workload.traffic w in
  let packet_size = Workload.packet_size in
  (* Admissible fractions are capped at 1; probe at a certainly
     infeasible load and scale back to recover the envelope. *)
  let probe = 32.0 in
  let frac =
    (Feasibility.report w.Workload.topo ~packet_size (Traffic.scale base probe))
      .Feasibility.fraction
  in
  let envelope = probe *. frac in
  (* Load multipliers fan out on the pool (MDR_JOBS); each task times
     its own audit, so wall_clock_s stays the per-audit cost even when
     rows run concurrently. *)
  let rows =
    Mdr_util.Pool.map_list
      (fun mult ->
        let offered = Traffic.scale base (mult *. envelope) in
        let t0 = Unix.gettimeofday () in
        let r =
          Overload.audit ~topo:w.Workload.topo ~packet_size ~base ~offered ()
        in
        let dt = Unix.gettimeofday () -. t0 in
        (mult, dt, r))
      [ 0.8; 1.0; 1.2 ]
  in
  Printf.printf
    "### overload scenario (0.8x/1.0x/1.2x of the %.2fx feasible envelope)\n"
    envelope;
  print_string
    (Overload.table
       (List.map (fun (m, _, r) -> (Printf.sprintf "%.1fx" m, r)) rows));
  print_newline ();
  let jfloat v = if Float.is_finite v then Printf.sprintf "%.6f" v else "null" in
  let json_row (mult, dt, (r : Overload.report)) =
    let f = r.Overload.fluid in
    Printf.sprintf
      "    {\"load_multiplier\": %.3f, \"wall_clock_s\": %s, \
       \"admitted_fraction\": %s, \"shed_fraction\": %s, \"base_delay_s\": %s, \
       \"overload_delay_s\": %s, \"delay_ratio\": %s, \"degraded\": %b, \
       \"costs_finite\": %b, \"saturated_links\": %d, \
       \"successor_flaps_undamped\": %d, \"successor_flaps_damped\": %d, \
       \"lfi_violations\": %d}"
      mult (jfloat dt)
      (jfloat f.Overload.admitted_fraction)
      (jfloat f.Overload.shed_fraction)
      (jfloat f.Overload.base_delay)
      (jfloat f.Overload.overload_delay)
      (jfloat f.Overload.delay_ratio)
      f.Overload.degraded f.Overload.costs_finite f.Overload.saturated_links
      r.Overload.undamped.Overload.successor_flaps
      r.Overload.damped.Overload.successor_flaps
      (r.Overload.undamped.Overload.lfi_violations
      + r.Overload.damped.Overload.lfi_violations)
  in
  let oc = open_out "BENCH_overload.json" in
  Printf.fprintf oc
    "{\n  \"benchmark\": \"overload\",\n  \"topology\": \"%s\",\n  \
     \"feasible_envelope\": %s,\n  \"rows\": [\n%s\n  ]\n}\n"
    w.Workload.name (jfloat envelope)
    (String.concat ",\n" (List.map json_row rows));
  close_out oc;
  Printf.printf "wrote BENCH_overload.json\n\n%!";
  (* The scenario doubles as a shape check: costs finite everywhere,
     zero LFI violations, and the >1x point must shed. *)
  List.length
    (List.filter
       (fun (mult, _, (r : Overload.report)) ->
         not
           (r.Overload.fluid.Overload.costs_finite
           && r.Overload.undamped.Overload.lfi_violations = 0
           && r.Overload.damped.Overload.lfi_violations = 0
           && (mult <= 1.0 || r.Overload.fluid.Overload.degraded)))
       rows)

(* --- Micro-benchmarks -------------------------------------------------- *)

let bench_dijkstra =
  let w = Workload.cairn ~load:1.0 in
  let cost (l : Mdr_topology.Graph.link) = 1.0 +. (l.prop_delay *. 1000.0) in
  Test.make ~name:"dijkstra: CAIRN all-destinations"
    (Staged.stage (fun () ->
         List.iter
           (fun dst ->
             ignore (Mdr_routing.Dijkstra.distances_to w.Workload.topo ~dst ~cost))
           (Mdr_topology.Graph.nodes w.Workload.topo)))

let bench_mpda_convergence =
  let topo = Mdr_topology.Net1.topology () in
  let cost (l : Mdr_topology.Graph.link) = 1.0 +. (l.prop_delay *. 1000.0) in
  Test.make ~name:"mpda: NET1 cold-start convergence"
    (Staged.stage (fun () ->
         let net = Mdr_routing.Network.create ~topo ~cost () in
         Mdr_routing.Network.run net;
         assert (Mdr_routing.Network.quiescent net)))

let bench_fluid_flows =
  let w = Workload.cairn ~load:1.0 in
  let model = Workload.model w in
  let traffic = Workload.traffic w in
  let params = Mdr_gallager.Gallager.spf_params model w.Workload.topo in
  Test.make ~name:"fluid: CAIRN flow computation"
    (Staged.stage (fun () ->
         ignore (Mdr_fluid.Flows.compute params traffic)))

let bench_opt_iteration =
  let w = Workload.net1 ~load:1.0 in
  let model = Workload.model w in
  let traffic = Workload.traffic w in
  Test.make ~name:"gallager: NET1 5 iterations"
    (Staged.stage (fun () ->
         ignore (Mdr_gallager.Gallager.solve ~max_iters:5 model w.Workload.topo traffic)))

(* BA-60 (m = 2, 10 Mb/s links) with 80 random flows, scaled so the
   busiest link runs at 0.8 under single-path routing: the solver load
   of the repository benchmark's fluid workload. *)
let ba60 =
  lazy
    (let module Fluid = Mdr_fluid in
     let rng = Mdr_util.Rng.create ~seed:60 in
     let topo =
       Mdr_topology.Generators.barabasi_albert ~rng ~n:60 ~m:2
         ~capacity_range:(10.0e6, 10.0e6) ()
     in
     let flows =
       List.init 80 (fun _ ->
           let src = Mdr_util.Rng.int rng ~bound:60 in
           let dst = (src + 1 + Mdr_util.Rng.int rng ~bound:59) mod 60 in
           let bits = Mdr_util.Rng.uniform rng ~lo:0.2e6 ~hi:0.8e6 in
           { Fluid.Traffic.src; dst; rate = bits /. Workload.packet_size })
     in
     let base = Fluid.Traffic.of_flows ~n:60 flows in
     let model = Fluid.Evaluate.model topo ~packet_size:Workload.packet_size in
     let spf = Mdr_gallager.Gallager.spf_params model topo in
     let u =
       Fluid.Flows.max_utilization spf (Fluid.Flows.compute spf base)
         ~packet_size:Workload.packet_size
     in
     (topo, model, spf, Fluid.Traffic.scale base (0.8 /. u)))

let bench_ba60_flows =
  Test.make ~name:"fluid: Flows.compute on BA-60"
    (Staged.stage (fun () ->
         let _, _, spf, traffic = Lazy.force ba60 in
         ignore (Mdr_fluid.Flows.compute spf traffic)))

let bench_ba60_opt_iteration =
  (* One gradient-projection iteration from the SPF start, line search
     and final flow computation included. *)
  Test.make ~name:"gallager: one OPT iteration on BA-60"
    (Staged.stage (fun () ->
         let topo, model, spf, traffic = Lazy.force ba60 in
         ignore
           (Mdr_gallager.Gallager.solve ~max_iters:1 ~degrade:false ~init:spf model topo
              traffic)))

let bench_ah_step =
  let current = [ (1, 0.4); (2, 0.35); (3, 0.25) ] in
  let through = function 1 -> 1.0 | 2 -> 1.5 | 3 -> 2.0 | _ -> infinity in
  Test.make ~name:"heuristics: one AH adjustment"
    (Staged.stage (fun () ->
         ignore (Mdr_core.Heuristics.adjust ~current ~through ())))

let bench_packet_sim =
  let topo = Mdr_topology.Net1.topology () in
  let flows =
    List.map
      (fun (src, dst) -> { Mdr_netsim.Sim.src; dst; rate_bits = 2.0e6; burst = None })
      (Mdr_topology.Net1.flow_pairs topo)
  in
  let cfg =
    { Mdr_netsim.Sim.default_config with sim_time = 2.0; warmup = 0.5 }
  in
  Test.make ~name:"netsim: 2 simulated seconds of NET1"
    (Staged.stage (fun () -> ignore (Mdr_netsim.Sim.run ~config:cfg topo flows)))

let bench_incr_spf =
  (* Steady-state single-link repair on a warm 1000-node BA table —
     the per-LSU hot path `mdrsim scale` sweeps at larger n. *)
  let module T = Mdr_routing.Topo_table in
  let module I = Mdr_routing.Incr_spf in
  let rng = Mdr_util.Rng.substream ~seed:1 ~index:0 in
  let topo = Mdr_topology.Generators.barabasi_albert ~rng ~n:1000 ~m:2 () in
  let table = T.create () in
  List.iter
    (fun (l : Mdr_topology.Graph.link) ->
      T.set table ~head:l.src ~tail:l.dst
        ~cost:(0.25 *. float_of_int (1 + Mdr_util.Rng.int rng ~bound:32)))
    (Mdr_topology.Graph.links topo);
  let iws = I.workspace () in
  let st = I.create ~n:1000 ~root:0 in
  I.full iws st table;
  (* Warm both views so the timed repairs are not charged their build. *)
  ignore (T.csr table ~n:1000);
  ignore (T.csr_in table ~n:1000);
  let l = List.hd (Mdr_topology.Graph.links topo) in
  let flip = ref false in
  Test.make ~name:"incr_spf: BA-1000 single-link repair"
    (Staged.stage (fun () ->
         flip := not !flip;
         let cost = if !flip then 4.0 else 4.25 in
         T.set table ~head:l.src ~tail:l.dst ~cost;
         ignore
           (I.update iws st table
              ~changes:[ { T.head = l.src; tail = l.dst; cost } ])))

let bench_view_merge =
  (* The per-LSU view cost of a neighbor table: one tree-edge move (a
     remove plus a set of a new edge) on a warm 1000-node tree, then a
     read of both views, which merges the move into them. *)
  let module T = Mdr_routing.Topo_table in
  let n = 1000 in
  let table = T.create () in
  for v = 1 to n - 1 do
    T.set table ~head:((v - 1) / 2) ~tail:v ~cost:1.0
  done;
  ignore (T.csr table ~n);
  ignore (T.csr_in table ~n);
  let v = n - 1 in
  let parents = [| (v - 1) / 2; 1 |] in
  let at = ref 0 in
  Test.make ~name:"topo_table: 1000-node tree-edge move + view read"
    (Staged.stage (fun () ->
         T.remove table ~head:parents.(!at) ~tail:v;
         at := 1 - !at;
         T.set table ~head:parents.(!at) ~tail:v ~cost:1.0;
         ignore (T.csr table ~n);
         ignore (T.csr_in table ~n)))

let bench_estimator =
  Test.make ~name:"estimator: busy-period sample"
    (Staged.stage (fun () ->
         let e = Mdr_costs.Estimator.busy_period ~prop_delay:0.001 in
         for i = 1 to 100 do
           Mdr_costs.Estimator.on_arrival e ~now:(float_of_int i *. 0.001);
           Mdr_costs.Estimator.on_departure e
             ~now:((float_of_int i *. 0.001) +. 0.0005)
             ~sojourn:0.0005 ~service:0.0004 ~busy:(i mod 3 <> 0)
         done;
         ignore (Mdr_costs.Estimator.sample e ~now:1.0)))

let bench_eventsim =
  (* The engine alone at the queue depth of a CAIRN packet run (about
     170 events): one schedule and one step per run, so a run is one
     event. Delays are drawn up front so the row times the heap, not
     the RNG. *)
  let module Engine = Mdr_eventsim.Engine in
  let rng = Mdr_util.Rng.create ~seed:1 in
  let delays = Array.init 4096 (fun _ -> Mdr_util.Rng.exponential rng ~rate:1.0) in
  let next = ref 0 in
  let e = Engine.create () in
  let schedule () =
    next := (!next + 1) land 4095;
    ignore (Engine.schedule e ~delay:delays.(!next) ignore)
  in
  for _ = 1 to 170 do
    schedule ()
  done;
  Test.make ~name:"eventsim: schedule+step at depth 170"
    (Staged.stage (fun () ->
         schedule ();
         ignore (Engine.step e)))

(* Bechamel's own minor-allocation measure reads [Gc.quick_stat], which
   on OCaml 5.1 only moves at minor collections; [Gc.minor_words] is
   exact. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "words"
end

let minor_words =
  Measure.instance (module Minor_words) (Measure.register (module Minor_words))

let micro_benchmarks () =
  let tests =
    [
      bench_dijkstra;
      bench_mpda_convergence;
      bench_fluid_flows;
      bench_opt_iteration;
      bench_ba60_flows;
      bench_ba60_opt_iteration;
      bench_ah_step;
      bench_packet_sim;
      bench_incr_spf;
      bench_view_merge;
      bench_estimator;
      bench_eventsim;
    ]
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 1.0) ~kde:None () in
  let grouped = Test.make_grouped ~name:"mdr" tests in
  let clock = Instance.monotonic_clock and words = minor_words in
  let results = Benchmark.all cfg [ clock; words ] grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let per_run instance =
    let analyzed = Analyze.all ols instance results in
    fun name ->
      match Option.map Analyze.OLS.estimates (Hashtbl.find_opt analyzed name) with
      | Some (Some (t :: _)) -> t
      | Some (Some [] | None) | None -> Float.nan
  in
  let ns_of = per_run clock and words_of = per_run words in
  let names = List.sort compare (List.map Test.Elt.name (Test.elements grouped)) in
  print_endline "### micro-benchmarks (Bechamel: monotonic clock, minor words)";
  print_endline
    (Mdr_util.Tab.render
       ~header:[ "benchmark"; "time per run"; "minor words per run" ]
       (List.map
          (fun name ->
            let ns = ns_of name and w = words_of name in
            let time =
              if Float.is_nan ns then "n/a"
              else if ns > 1.0e9 then Printf.sprintf "%.2f s" (ns /. 1.0e9)
              else if ns > 1.0e6 then Printf.sprintf "%.2f ms" (ns /. 1.0e6)
              else if ns > 1.0e3 then Printf.sprintf "%.2f us" (ns /. 1.0e3)
              else Printf.sprintf "%.0f ns" ns
            in
            [ name; time; (if Float.is_nan w then "n/a" else Printf.sprintf "%.1f" w) ])
          names))

let () =
  print_endline "=== Reproduction benches: A Simple Approximation to Minimum-Delay Routing ===";
  print_endline "";
  let experiment_failures = run_experiments () in
  let overload_failures = overload_scenario () in
  let failures = experiment_failures + overload_failures in
  micro_benchmarks ();
  Printf.printf "\n=== done: %d shape-check failure(s) ===\n" failures;
  if failures > 0 then exit 1
