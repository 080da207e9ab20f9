(* Tests for the packet-level simulator: M/M/1 ground truth, traffic
   generator statistics, conservation (no loss), loop-freedom during
   full-system runs, the MP-vs-SP ordering under load, and golden
   digests that pin every reported number bit for bit. *)

module Graph = Mdr_topology.Graph
module Sim = Mdr_netsim.Sim
module Traffic_gen = Mdr_netsim.Traffic_gen
module Engine = Mdr_eventsim.Engine
module Rng = Mdr_util.Rng
module Stats = Mdr_util.Stats

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let two_nodes () =
  let g = Graph.create ~names:[| "a"; "b" |] in
  Graph.add_duplex g "a" "b" ~capacity:10.0e6 ~prop_delay:0.001;
  g

let test_single_link_mm1_delay () =
  (* The simulator must reproduce the M/M/1 sojourn-time formula the
     whole fluid model rests on. *)
  let topo = two_nodes () in
  let cfg = { Sim.default_config with sim_time = 80.0; warmup = 15.0; seed = 2 } in
  let rate = 6.0e6 in
  let r = Sim.run ~config:cfg topo [ { Sim.src = 0; dst = 1; rate_bits = rate; burst = None } ] in
  let c = 10.0e6 /. cfg.mean_packet_size and lam = rate /. cfg.mean_packet_size in
  let theory = (1.0 /. (c -. lam)) +. 0.001 in
  match r.flows with
  | [ f ] ->
    check "delivered plenty" true (f.delivered > 10_000);
    check_int "no drops" 0 f.dropped;
    check "within 5% of M/M/1" true
      (Float.abs (f.mean_delay -. theory) /. theory < 0.05)
  | _ -> Alcotest.fail "one flow expected"

let test_no_packet_loss_stable_load () =
  let topo = Mdr_topology.Net1.topology () in
  let flows =
    List.map
      (fun (src, dst) -> { Sim.src; dst; rate_bits = 2.0e6; burst = None })
      (Mdr_topology.Net1.flow_pairs topo)
  in
  let cfg = { Sim.default_config with sim_time = 30.0; warmup = 5.0 } in
  let r = Sim.run ~config:cfg topo flows in
  check "delivered" true (r.total_delivered > 50_000);
  check "negligible drops" true
    (float_of_int r.total_dropped /. float_of_int r.total_delivered < 1e-3)

let test_loop_freedom_throughout () =
  let topo = Mdr_topology.Net1.topology () in
  let flows =
    List.map
      (fun (src, dst) -> { Sim.src; dst; rate_bits = 3.0e6; burst = None })
      (Mdr_topology.Net1.flow_pairs topo)
  in
  let cfg = { Sim.default_config with sim_time = 40.0; warmup = 5.0; seed = 3 } in
  let r = Sim.run ~config:cfg topo flows in
  check_int "no loop violations" 0 r.loop_free_violations

let test_control_traffic_flows () =
  let topo = Mdr_topology.Net1.topology () in
  let cfg = { Sim.default_config with sim_time = 25.0 } in
  let r =
    Sim.run ~config:cfg topo [ { Sim.src = 0; dst = 9; rate_bits = 1.0e6; burst = None } ]
  in
  check "LSUs were exchanged" true (r.control_messages > 50)

let test_sp_not_faster_than_mp_under_load () =
  let topo = Mdr_topology.Net1.topology () in
  let flows =
    List.mapi
      (fun i (src, dst) ->
        { Sim.src; dst; rate_bits = 1.5 *. (2.0 +. (0.1 *. float_of_int i)) *. 1.0e6; burst = None })
      (Mdr_topology.Net1.flow_pairs topo)
  in
  let cfg = { Sim.default_config with sim_time = 50.0; warmup = 10.0 } in
  let mp = Sim.run ~config:cfg topo flows in
  let sp = Sim.run ~config:{ cfg with scheme = Sim.Sp } topo flows in
  check "MP at least as good" true (mp.avg_delay <= sp.avg_delay *. 1.05)

let test_deterministic_given_seed () =
  let topo = two_nodes () in
  let cfg = { Sim.default_config with sim_time = 10.0; warmup = 1.0; seed = 5 } in
  let flow = [ { Sim.src = 0; dst = 1; rate_bits = 4.0e6; burst = None } ] in
  let a = Sim.run ~config:cfg topo flow in
  let b = Sim.run ~config:cfg topo flow in
  check "identical delivered" true (a.total_delivered = b.total_delivered);
  check "identical delay" true
    ((List.hd a.flows).mean_delay = (List.hd b.flows).mean_delay)

let test_seed_changes_results () =
  let topo = two_nodes () in
  let flow = [ { Sim.src = 0; dst = 1; rate_bits = 4.0e6; burst = None } ] in
  let cfg = { Sim.default_config with sim_time = 10.0; warmup = 1.0 } in
  let a = Sim.run ~config:{ cfg with seed = 1 } topo flow in
  let b = Sim.run ~config:{ cfg with seed = 2 } topo flow in
  check "different sample paths" true
    ((List.hd a.flows).mean_delay <> (List.hd b.flows).mean_delay)

let test_estimator_variants_run () =
  let topo = two_nodes () in
  let flow = [ { Sim.src = 0; dst = 1; rate_bits = 5.0e6; burst = None } ] in
  List.iter
    (fun estimator ->
      let cfg = { Sim.default_config with sim_time = 15.0; warmup = 3.0; estimator } in
      let r = Sim.run ~config:cfg topo flow in
      check "delivers" true (r.total_delivered > 1000))
    [ Sim.Mm1; Sim.Busy_period; Sim.Sojourn ]

let test_bursty_source_rate () =
  (* On-off sources must preserve the configured mean rate. *)
  let engine = Engine.create () in
  let rng = Rng.create ~seed:11 in
  let gen =
    Traffic_gen.on_off ~rng ~rate_bits:2.0e6 ~mean_packet_size:4096.0
      ~on_mean:1.0 ~off_mean:1.0
  in
  let bits = ref 0.0 in
  Traffic_gen.start gen ~engine ~flow_id:0 ~src:0 ~dst:1
    ~inject:(fun p -> bits := !bits +. p.Mdr_netsim.Packet.size)
    ~until:400.0;
  Engine.run engine;
  let mean_rate = !bits /. 400.0 in
  check "within 10% of nominal" true
    (Float.abs (mean_rate -. 2.0e6) /. 2.0e6 < 0.10)

let test_poisson_source_rate () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:12 in
  let gen = Traffic_gen.poisson ~rng ~rate_bits:3.0e6 ~mean_packet_size:4096.0 in
  let bits = ref 0.0 and count = ref 0 in
  Traffic_gen.start gen ~engine ~flow_id:0 ~src:0 ~dst:1
    ~inject:(fun p ->
      bits := !bits +. p.Mdr_netsim.Packet.size;
      incr count)
    ~until:200.0;
  Engine.run engine;
  check "bit rate" true (Float.abs ((!bits /. 200.0) -. 3.0e6) /. 3.0e6 < 0.05);
  let pkt_rate = float_of_int !count /. 200.0 in
  check "packet rate" true (Float.abs (pkt_rate -. (3.0e6 /. 4096.0)) < 0.05 *. (3.0e6 /. 4096.0))

let test_bursty_delays_exceed_poisson () =
  (* Burstiness at equal mean load increases queueing delay. *)
  let topo = two_nodes () in
  let cfg = { Sim.default_config with sim_time = 60.0; warmup = 10.0; seed = 4 } in
  let base = { Sim.src = 0; dst = 1; rate_bits = 6.0e6; burst = None } in
  let smooth = Sim.run ~config:cfg topo [ base ] in
  let bursty = Sim.run ~config:cfg topo [ { base with burst = Some (0.5, 0.5) } ] in
  check "bursty slower" true
    ((List.hd bursty.flows).mean_delay > (List.hd smooth.flows).mean_delay)

let test_config_validation () =
  let topo = two_nodes () in
  check "bad timescales" true
    (try
       ignore
         (Sim.run
            ~config:{ Sim.default_config with t_s = 5.0; t_l = 1.0 }
            topo []);
       false
     with Invalid_argument _ -> true);
  Alcotest.check_raises "unknown destination"
    (Invalid_argument "Sim.run: flow endpoint out of range") (fun () ->
      ignore (Sim.run topo [ { Sim.src = 0; dst = 2; rate_bits = 1.0e6; burst = None } ]))

let test_finite_buffers_drop_under_overload () =
  (* 12 Mb/s into a 10 Mb/s link with a 32-packet buffer: tail drops
     appear, and the mean queue stays bounded by the buffer. *)
  let topo = two_nodes () in
  let cfg =
    { Sim.default_config with sim_time = 30.0; warmup = 5.0; buffer_packets = Some 32 }
  in
  let r = Sim.run ~config:cfg topo [ { Sim.src = 0; dst = 1; rate_bits = 12.0e6; burst = None } ] in
  let f = List.hd r.flows in
  check "drops occur" true (f.dropped > 100);
  check "still delivers" true (f.delivered > 10_000);
  check "queue bounded" true (r.max_mean_queue <= 32.0)

let test_infinite_buffers_no_loss () =
  let topo = two_nodes () in
  let cfg = { Sim.default_config with sim_time = 20.0; warmup = 2.0 } in
  let r = Sim.run ~config:cfg topo [ { Sim.src = 0; dst = 1; rate_bits = 8.0e6; burst = None } ] in
  Alcotest.(check int) "no loss" 0 (List.hd r.flows).dropped

let test_link_stats () =
  (* One 5 Mb/s flow on a 10 Mb/s link: utilization ~0.5 on the used
     direction, ~0 on the reverse. *)
  let topo = two_nodes () in
  let cfg = { Sim.default_config with sim_time = 40.0; warmup = 5.0 } in
  let r = Sim.run ~config:cfg topo [ { Sim.src = 0; dst = 1; rate_bits = 5.0e6; burst = None } ] in
  Alcotest.(check int) "two links" 2 (List.length r.links);
  let fwd = List.find (fun (l : Sim.link_stat) -> l.src = 0) r.links in
  let back = List.find (fun (l : Sim.link_stat) -> l.src = 1) r.links in
  check "forward utilization ~0.5" true
    (Float.abs (fwd.utilization -. 0.5) < 0.05);
  check "forward carried packets" true (fwd.packets > 10_000);
  check "reverse only control traffic" true (back.utilization < 0.01);
  (* M/M/1 sanity: mean packets in system = rho/(1-rho) ~ 1. *)
  check "mean queue near rho/(1-rho)" true (Float.abs (fwd.mean_queue -. 1.0) < 0.25)

let test_mean_hops () =
  (* On the two-node network every packet takes exactly one hop. *)
  let topo = two_nodes () in
  let cfg = { Sim.default_config with sim_time = 10.0; warmup = 1.0 } in
  let r = Sim.run ~config:cfg topo [ { Sim.src = 0; dst = 1; rate_bits = 4.0e6; burst = None } ] in
  Alcotest.(check (float 1e-9)) "one hop" 1.0 (List.hd r.flows).mean_hops

let test_ecmp_uses_both_equal_paths () =
  (* Symmetric diamond: ECMP's even split shows up as both a-links
     carrying roughly half the traffic. *)
  let g = Graph.create ~names:[| "s"; "a"; "b"; "d" |] in
  List.iter
    (fun (x, y) -> Graph.add_duplex g x y ~capacity:10.0e6 ~prop_delay:0.001)
    [ ("s", "a"); ("a", "d"); ("s", "b"); ("b", "d") ];
  let cfg =
    { Sim.default_config with scheme = Sim.Ecmp; sim_time = 30.0; warmup = 5.0 }
  in
  let r = Sim.run ~config:cfg g [ { Sim.src = 0; dst = 3; rate_bits = 6.0e6; burst = None } ] in
  let util src dst =
    (List.find (fun (l : Sim.link_stat) -> l.src = src && l.dst = dst) r.links)
      .utilization
  in
  check "path a used" true (util 0 1 > 0.2);
  check "path b used" true (util 0 2 > 0.2);
  check "roughly even" true (Float.abs (util 0 1 -. util 0 2) < 0.1)

let test_p95_at_least_mean () =
  let topo = two_nodes () in
  let cfg = { Sim.default_config with sim_time = 20.0; warmup = 2.0 } in
  let r = Sim.run ~config:cfg topo [ { Sim.src = 0; dst = 1; rate_bits = 5.0e6; burst = None } ] in
  let f = List.hd r.flows in
  check "p95 >= mean" true (f.p95_delay >= f.mean_delay)

let test_timeline_collected () =
  let topo = two_nodes () in
  let cfg = { Sim.default_config with sim_time = 20.0; warmup = 2.0 } in
  let r = Sim.run ~config:cfg topo [ { Sim.src = 0; dst = 1; rate_bits = 5.0e6; burst = None } ] in
  check "timeline nonempty" true (List.length r.delay_timeline > 10);
  List.iter
    (fun (t, d, c) ->
      check "time in range" true (t >= 0.0 && t <= 20.0);
      check "positive delay" true (d > 0.0);
      check "positive count" true (c > 0))
    r.delay_timeline

let test_link_failure_reroutes () =
  (* Square: 0-1-3 and 0-2-3. Fail 1-3 mid-run: traffic must reroute
     via 2 and keep being delivered. *)
  let g = Graph.create ~names:[| "s"; "a"; "b"; "d" |] in
  List.iter
    (fun (x, y) -> Graph.add_duplex g x y ~capacity:10.0e6 ~prop_delay:0.001)
    [ ("s", "a"); ("a", "d"); ("s", "b"); ("b", "d") ];
  let cfg = { Sim.default_config with sim_time = 40.0; warmup = 5.0; t_l = 4.0; t_s = 1.0 } in
  let events = [ Sim.Fail_duplex { at = 15.0; a = 1; b = 3 } ] in
  let r =
    Sim.run ~config:cfg ~events g
      [ { Sim.src = 0; dst = 3; rate_bits = 4.0e6; burst = None } ]
  in
  let f = List.hd r.flows in
  (* Deliveries continue well after the failure. *)
  let late = List.filter (fun (t, _, _) -> t > 20.0) r.delay_timeline in
  check "delivers after failure" true (List.length late > 10);
  check "most packets delivered" true
    (float_of_int f.dropped /. float_of_int (f.delivered + f.dropped) < 0.02);
  check "loop free throughout" true (r.loop_free_violations = 0)

let test_link_failure_and_restore () =
  let g = Graph.create ~names:[| "s"; "a"; "b"; "d" |] in
  List.iter
    (fun (x, y) -> Graph.add_duplex g x y ~capacity:10.0e6 ~prop_delay:0.001)
    [ ("s", "a"); ("a", "d"); ("s", "b"); ("b", "d") ];
  let cfg = { Sim.default_config with sim_time = 40.0; warmup = 5.0; t_l = 4.0; t_s = 1.0 } in
  let events =
    [
      Sim.Fail_duplex { at = 12.0; a = 1; b = 3 };
      Sim.Restore_duplex { at = 25.0; a = 1; b = 3 };
    ]
  in
  let r =
    Sim.run ~config:cfg ~events g
      [ { Sim.src = 0; dst = 3; rate_bits = 9.0e6; burst = None } ]
  in
  (* With 9 Mb/s on a single remaining 10 Mb/s path, delays during the
     outage exceed the post-restore (split) delays. *)
  let mean_over lo hi =
    let xs =
      List.filter_map
        (fun (t, d, _) -> if t >= lo && t < hi then Some d else None)
        r.delay_timeline
    in
    Stats.mean_of_list xs
  in
  let during = mean_over 16.0 24.0 and after = mean_over 32.0 40.0 in
  check "delay spikes during outage" true (during > after);
  check "loop free" true (r.loop_free_violations = 0)

(* --- Golden byte-identity ------------------------------------------- *)

(* Every number a run reports, printed exactly (hex floats) and hashed.
   A change in event order, in RNG draws or in float summation order
   changes the digest. *)
let result_digest (r : Sim.result) =
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  List.iter
    (fun (f : Sim.flow_stat) ->
      add "flow %d %d %h %h %h\n" f.delivered f.dropped f.mean_delay f.p95_delay
        f.mean_hops)
    r.flows;
  add "totals %d %d %h %d %d %h\n" r.total_delivered r.total_dropped r.avg_delay
    r.control_messages r.loop_free_violations r.max_mean_queue;
  List.iter
    (fun (l : Sim.link_stat) ->
      add "link %d %d %h %h %d\n" l.src l.dst l.utilization l.mean_queue l.packets)
    r.links;
  List.iter
    (fun (e : Sim.epoch_stat) ->
      add "epoch %h %h %h %d %d\n" e.from_ e.until_ e.mean_delay e.delivered e.dropped)
    r.epochs;
  List.iter (fun (t, d, c) -> add "bucket %h %h %d\n" t d c) r.delay_timeline;
  Digest.to_hex (Digest.string (Buffer.contents b))

let diamond () =
  let g = Graph.create ~names:[| "s"; "a"; "b"; "d" |] in
  List.iter
    (fun (x, y) -> Graph.add_duplex g x y ~capacity:10.0e6 ~prop_delay:0.001)
    [ ("s", "a"); ("a", "d"); ("s", "b"); ("b", "d") ];
  g

let net1_flows ?burst rate_bits topo =
  List.map
    (fun (src, dst) -> { Sim.src; dst; rate_bits; burst })
    (Mdr_topology.Net1.flow_pairs topo)

let golden_config =
  { Sim.default_config with sim_time = 12.0; warmup = 2.0; t_l = 4.0; t_s = 1.0; seed = 5 }

type golden_case = {
  name : string;
  config : Sim.config;
  events : Sim.event list;
  topo : unit -> Graph.t;
  flows : Graph.t -> Sim.flow_spec list;
  digest : string;
}

(* Digests recorded with the hashtable-and-generic-heap event core that
   the flat arrays replaced; a moved digest means a moved event order or
   a reordered float sum. *)
let golden_cases =
  let net1 = Mdr_topology.Net1.topology in
  let base =
    {
      name = "MP";
      config = golden_config;
      events = [];
      topo = net1;
      flows = net1_flows 3.0e6;
      digest = "53c7d6809f65bb03f7cecb955b754ed3";
    }
  in
  [
    base;
    {
      base with
      name = "SP";
      config = { golden_config with scheme = Sim.Sp };
      digest = "1423d9524e53d1b74720c9bcf81ac29e";
    };
    {
      base with
      name = "ECMP";
      config = { golden_config with scheme = Sim.Ecmp };
      topo = diamond;
      flows =
        (fun _ ->
          [
            { Sim.src = 0; dst = 3; rate_bits = 6.0e6; burst = None };
            { Sim.src = 3; dst = 0; rate_bits = 2.0e6; burst = None };
          ]);
      digest = "53f936da6a88a5949dc2cc7d637b8808";
    };
    {
      base with
      name = "tail drop";
      config = { golden_config with buffer_packets = Some 4 };
      flows = net1_flows 6.0e6;
      digest = "74ef726f6bb04150e54e99f0dec3db32";
    };
    {
      base with
      name = "faults";
      events =
        [
          Sim.Fail_duplex { at = 3.0; a = 0; b = 1 };
          Sim.Crash_node { at = 5.0; node = 4 };
          Sim.Restore_duplex { at = 7.0; a = 0; b = 1 };
          Sim.Restart_node { at = 8.5; node = 4 };
        ];
      digest = "eae6f5508a1042df9ac48c9d2c9f74b2";
    };
    {
      base with
      name = "on-off";
      flows = net1_flows ~burst:(0.2, 0.3) 3.0e6;
      digest = "0c4b3f06e04b0b1092abf84814111a00";
    };
  ]

let golden_run c =
  let topo = c.topo () in
  Sim.run ~config:c.config ~events:c.events topo (c.flows topo)

let test_golden_digests () =
  List.iter
    (fun c ->
      let r = golden_run c in
      (* Guard the coverage each case claims, so a digest cannot pin a
         run that no longer exercises its feature. *)
      (match c.name with
      | "tail drop" -> check "tail drops happen" true (r.total_dropped > 1000)
      | "faults" -> check_int "one epoch per distinct event time" 5 (List.length r.epochs)
      | "ECMP" ->
        check "both paths carry traffic" true
          (List.for_all (fun (l : Sim.link_stat) -> l.packets > 1000)
             (List.filter (fun (l : Sim.link_stat) -> l.src = 0) r.links))
      | _ -> ());
      Alcotest.(check string) c.name c.digest (result_digest r))
    golden_cases

let suite =
  [
    Alcotest.test_case "single link reproduces M/M/1" `Slow test_single_link_mm1_delay;
    Alcotest.test_case "no loss at stable load" `Slow test_no_packet_loss_stable_load;
    Alcotest.test_case "loop-free throughout a run" `Slow test_loop_freedom_throughout;
    Alcotest.test_case "control plane active" `Quick test_control_traffic_flows;
    Alcotest.test_case "MP <= SP under load" `Slow test_sp_not_faster_than_mp_under_load;
    Alcotest.test_case "deterministic per seed" `Quick test_deterministic_given_seed;
    Alcotest.test_case "seed changes sample path" `Quick test_seed_changes_results;
    Alcotest.test_case "all estimators usable" `Quick test_estimator_variants_run;
    Alcotest.test_case "on-off source mean rate" `Quick test_bursty_source_rate;
    Alcotest.test_case "poisson source rates" `Quick test_poisson_source_rate;
    Alcotest.test_case "burstiness raises delay" `Slow test_bursty_delays_exceed_poisson;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "p95 >= mean" `Quick test_p95_at_least_mean;
    Alcotest.test_case "mean hops" `Quick test_mean_hops;
    Alcotest.test_case "per-link statistics" `Slow test_link_stats;
    Alcotest.test_case "ECMP splits equal paths" `Slow test_ecmp_uses_both_equal_paths;
    Alcotest.test_case "finite buffers drop at overload" `Slow test_finite_buffers_drop_under_overload;
    Alcotest.test_case "unbounded buffers lossless" `Quick test_infinite_buffers_no_loss;
    Alcotest.test_case "delay timeline collected" `Quick test_timeline_collected;
    Alcotest.test_case "link failure reroutes traffic" `Slow test_link_failure_reroutes;
    Alcotest.test_case "failure + restore delay profile" `Slow test_link_failure_and_restore;
    Alcotest.test_case "golden digests are byte-identical" `Quick test_golden_digests;
  ]
