(* The repository benchmark: four workloads that exercise the paper
   pipeline, MPDA convergence and the route server, timed from outside
   through the public functions of each layer.

   mdrbench --workload NAME --seed N --seconds S --trace 0|1 [--quick]

   A run repeats one pass of its workload until [--seconds] have gone
   by (see [min_passes]). Each pass builds its inputs from the seed
   (timed as set-up), runs the timed phase, and checks every output
   outside the timed spans. Passes of one run do identical work,
   so their digests must agree. With [--trace 0] the last line is the
   end-to-end metrics; with [--trace 1] passes alternate traced and
   untraced, and the last line is the per-layer metrics, computed from
   spans of the traced passes. The process exits 1 when any check
   failed. See README.md beside this file. *)

module Rng = Mdr_util.Rng
module Graph = Mdr_topology.Graph
module Generators = Mdr_topology.Generators
module Traffic = Mdr_fluid.Traffic
module Evaluate = Mdr_fluid.Evaluate
module Gallager = Mdr_gallager.Gallager
module Controller = Mdr_core.Controller
module Sim = Mdr_netsim.Sim
module Topo_table = Mdr_routing.Topo_table
module Router = Mdr_routing.Router
module Syncnet = Mdr_routing.Syncnet
module Server = Mdr_server.Server
module Update = Mdr_server.Update
module Procfault = Mdr_faults.Procfault
module Transport = Mdr_wire.Transport
module Client = Mdr_wire.Client
module Wire_server = Mdr_wire.Wire_server
module Workload = Mdr_experiments.Workload

let clock = Span.now

(* ---- checks ------------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0

let check name ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.printf "[FAIL] %s\n%!" name
  end

(* ---- statistics --------------------------------------------------- *)

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile xs p = Mdr_util.Stats.percentile xs ~p

let median xs = percentile xs 50.0

(* The highest of these percentiles with at least ten samples beyond
   it; [None] (report the maximum) below forty samples. *)
let tail_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (100.0 -. p) /. 100.0 >= 10.0)
    [ 99.9; 99.0; 98.0; 95.0; 90.0; 75.0 ]

let tail xs =
  match tail_percentile (List.length xs) with
  | Some p -> percentile xs p
  | None -> List.fold_left Float.max 0.0 xs

let tail_label n =
  match tail_percentile n with
  | Some p -> Printf.sprintf "p%g" p
  | None -> "max"

(* ---- one pass ----------------------------------------------------- *)

type pass = {
  setup : float list;  (** seconds per set-up; several per pass *)
  run_s : float;
  ops : float list;  (** seconds per unit operation of the workload *)
  digest : string;
  counts : (string * float) list;
      (** per-layer numbers measured by the harness itself *)
}

let timed f =
  let t0 = clock () in
  let v = f () in
  (v, clock () -. t0)

(* Build the inputs [setup_blocks] times [reps] times, each [reps]
   builds timed as one block, and keep the last build; each block gives
   one set-up sample, its time over [reps]. A cheap set-up takes
   microseconds, and timing each build alone gave samples that were
   mostly scheduling and GC noise; consecutive blocks still differ by up
   to 30% on a busy machine, hence several. The garbage of the builds is
   collected outside the timing, so the timed phase does not pay for
   it. *)
let setup_blocks = 5

let setups reps build =
  let last = ref None in
  let block () =
    let t0 = clock () in
    for _ = 1 to reps do
      last := Some (build ())
    done;
    (clock () -. t0) /. float_of_int reps
  in
  let samples = List.init setup_blocks (fun _ -> block ()) in
  Gc.full_major ();
  (Option.get !last, samples)

(* The BA networks are part of each workload's definition, drawn from
   this generator seed; the benchmark seed draws what runs on them. *)
let network_seed = 1

(* Workload sizes. [full] is the measured benchmark; [quick] is the
   short preset the self-test runs. *)
type sizes = {
  setup_reps : int;  (** builds per set-up sample *)
  cairn_setup_reps : int;  (** the same for paper-cairn, whose build takes 40 us *)
  sim_seeds : int;  (** packet runs per paper-cairn pass *)
  sim_time : float;
  mp_rounds : int;  (** fluid MP long-term rounds (8 AH steps each) *)
  fluid_n : int;
  fluid_flows : int;
  mpda_n : int;
  churn_changes : int;
  server_n : int;
  server_updates : int;
}

let full =
  {
    setup_reps = 20;
    cairn_setup_reps = 500;
    sim_seeds = 2;
    sim_time = 80.0;
    mp_rounds = 60;
    fluid_n = 60;
    fluid_flows = 80;
    mpda_n = 300;
    churn_changes = 300;
    server_n = 100;
    server_updates = 400;
  }

let quick =
  {
    setup_reps = 2;
    cairn_setup_reps = 2;
    sim_seeds = 1;
    sim_time = 30.0;
    mp_rounds = 10;
    fluid_n = 20;
    fluid_flows = 20;
    mpda_n = 40;
    churn_changes = 10;
    server_n = 30;
    server_updates = 30;
  }

let minor_words () = Gc.minor_words ()

let digest_of b = Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- paper-cairn -------------------------------------------------- *)

(* The Fig. 9 pipeline on CAIRN at load 1.0: OPT, fluid MP, then
   MP-TL-10-TS-2 packet runs (20 s warm-up) over [sim_seeds] seeds
   drawn from the benchmark seed, one after another. *)
let mp_config sz = { Controller.scheme = Mp; rounds = sz.mp_rounds; ts_per_tl = 8; damping = 0.5 }

let paper_cairn sz ~seed () =
  let (w, model, traffic, flows, seeds), setup =
    setups sz.cairn_setup_reps (fun () ->
        let w = Workload.cairn ~load:1.0 in
        let seeds = List.init sz.sim_seeds (fun i -> (sz.sim_seeds * (seed - 1)) + i + 1) in
        (w, Workload.model w, Workload.traffic w, Workload.sim_flows w, seeds))
  in
  let topo = w.Workload.topo in
  let sim_cfg =
    { Sim.default_config with sim_time = sz.sim_time; warmup = 20.0; t_l = 10.0; t_s = 2.0 }
  in
  let mp_cfg = mp_config sz in
  let ops = ref [] in
  let w0 = minor_words () in
  let (opt, mp, opt_d, mp_d, sims), run_s =
    timed (fun () ->
        let opt = Span.with_ "Gallager.solve" (fun () -> Gallager.solve model topo traffic) in
        let mp =
          Span.with_ "Controller.run" (fun () -> Controller.run ~config:mp_cfg model topo traffic)
        in
        let delays (p : Mdr_fluid.Params.t) fl =
          Span.with_ "Evaluate.per_flow_delays" (fun () ->
              List.map snd (Evaluate.per_flow_delays model p fl traffic))
        in
        let opt_d = delays opt.Gallager.params opt.Gallager.flows in
        let mp_d = delays mp.Controller.params mp.Controller.flows in
        let sims =
          List.map
            (fun s ->
              let r, dt =
                timed (fun () ->
                    Span.with_ "Sim.run" (fun () ->
                        Sim.run ~config:{ sim_cfg with Sim.seed = s } topo flows))
              in
              ops := dt :: !ops;
              r)
            seeds
        in
        (opt, mp, opt_d, mp_d, sims))
  in
  let words = minor_words () -. w0 in
  check "paper-cairn: fluid MP within 5% of OPT on every flow"
    (List.for_all2 (fun o m -> m <= o *. 1.05) opt_d mp_d);
  check "paper-cairn: OPT's total cost lower-bounds fluid MP's"
    (opt.Gallager.total_cost <= mp.Controller.total_cost *. 1.001);
  let loops = List.fold_left (fun a (r : Sim.result) -> a + r.loop_free_violations) 0 sims in
  check "paper-cairn: no loop violations in packet runs" (loops = 0);
  let sum f = List.fold_left (fun a r -> a +. f r) 0.0 sims in
  let delivered = sum (fun (r : Sim.result) -> float_of_int r.total_delivered) in
  let b = Buffer.create 1024 in
  List.iter (Printf.bprintf b "%h;") opt_d;
  List.iter (Printf.bprintf b "%h;") mp_d;
  Printf.bprintf b "|it=%d" opt.Gallager.iterations;
  List.iter
    (fun (r : Sim.result) ->
      Printf.bprintf b "|lsu=%d,del=%d,drop=%d,loops=%d:" r.control_messages
        r.total_delivered r.total_dropped r.loop_free_violations;
      List.iter (fun (f : Sim.flow_stat) -> Printf.bprintf b "%h;" f.mean_delay) r.flows)
    sims;
  {
    setup;
    run_s;
    ops = !ops;
    digest = digest_of b;
    counts =
      [
        ("gallager.iterations", float_of_int opt.Gallager.iterations);
        ("core.steps", float_of_int (mp_cfg.rounds * mp_cfg.ts_per_tl));
        ("netsim.pkts", delivered +. sum (fun r -> float_of_int r.total_dropped));
        ("netsim.pkts_delivered", delivered);
        ("netsim.lsus", sum (fun r -> float_of_int r.control_messages));
        ( "netsim.max_mean_queue",
          List.fold_left (fun a (r : Sim.result) -> Float.max a r.max_mean_queue) 0.0 sims );
        ("netsim.loop_violations", float_of_int loops);
        ("gc.minor_words", words);
      ];
  }

(* ---- fluid-ba60 --------------------------------------------------- *)

(* OPT and fluid MP on a BA-[fluid_n] network (m = 2, 10 Mb/s links)
   with [fluid_flows] flows, at two load points. No packet simulation
   and no MPDA: the solver layers do the work. The network, the flow
   pairs and their base rates are fixed, like CAIRN's; the seed jitters
   every rate by up to 5%. Drawing the network or the rates afresh per
   seed moved Gallager's iteration count between 79 and 1148 per point,
   which would bury any solver change in input noise. A load point is
   the utilisation of the busiest link under single-path routing. *)
let fluid_loads = [ 0.5; 0.8 ]

let fluid_ba60 sz ~seed () =
  let (topo, model, traffics), setup =
    setups sz.setup_reps (fun () ->
        let rng = Rng.substream ~seed:network_seed ~index:0 in
        let topo =
          Generators.barabasi_albert ~rng ~n:sz.fluid_n ~m:2 ~capacity_range:(10.0e6, 10.0e6) ()
        in
        let n = Graph.node_count topo in
        let pairs = Hashtbl.create sz.fluid_flows in
        let flows = ref [] in
        while Hashtbl.length pairs < sz.fluid_flows do
          let s = Rng.int rng ~bound:n and d = Rng.int rng ~bound:n in
          if s <> d && not (Hashtbl.mem pairs (s, d)) then begin
            Hashtbl.replace pairs (s, d) ();
            flows := (s, d, Rng.uniform rng ~lo:0.2e6 ~hi:0.8e6) :: !flows
          end
        done;
        let jitter = Rng.substream ~seed ~index:0 in
        let base =
          Traffic.of_flows ~n
            (List.rev_map
               (fun (src, dst, bits) ->
                 let bits = bits *. Rng.uniform jitter ~lo:0.95 ~hi:1.05 in
                 { Traffic.src; dst; rate = bits /. Workload.packet_size })
               !flows)
        in
        let model = Evaluate.model topo ~packet_size:Workload.packet_size in
        let spf = Gallager.spf_params model topo in
        let u =
          Mdr_fluid.Flows.max_utilization spf (Mdr_fluid.Flows.compute spf base)
            ~packet_size:Workload.packet_size
        in
        (topo, model, List.map (fun l -> Traffic.scale base (l /. u)) fluid_loads))
  in
  let mp_cfg = mp_config sz in
  let ops = ref [] in
  let w0 = minor_words () in
  let results, run_s =
    timed (fun () ->
        List.map
          (fun traffic ->
            let (opt, mp, opt_d, mp_d), dt =
              timed (fun () ->
                  let opt =
                    Span.with_ "Gallager.solve" (fun () -> Gallager.solve model topo traffic)
                  in
                  let mp =
                    Span.with_ "Controller.run" (fun () ->
                        Controller.run ~config:mp_cfg model topo traffic)
                  in
                  let delays (p : Mdr_fluid.Params.t) fl =
                    Span.with_ "Evaluate.per_flow_delays" (fun () ->
                        List.map snd (Evaluate.per_flow_delays model p fl traffic))
                  in
                  ( opt,
                    mp,
                    delays opt.Gallager.params opt.Gallager.flows,
                    delays mp.Controller.params mp.Controller.flows ))
            in
            ops := dt :: !ops;
            (traffic, opt, mp, opt_d, mp_d))
          traffics)
  in
  let words = minor_words () -. w0 in
  let b = Buffer.create 4096 in
  let iters = ref 0 in
  List.iteri
    (fun i (traffic, (opt : Gallager.result), (mp : Controller.result), opt_d, mp_d) ->
      iters := !iters + opt.iterations;
      check (Printf.sprintf "fluid-ba60 point %d: OPT status Feasible" i)
        (match opt.status with Gallager.Feasible -> true | Gallager.Degraded _ -> false);
      check (Printf.sprintf "fluid-ba60 point %d: OPT converged" i) opt.converged;
      check (Printf.sprintf "fluid-ba60 point %d: Gallager optimality conditions hold" i)
        (Gallager.check_optimality model opt.params opt.flows traffic ~tolerance:0.02);
      Printf.bprintf b "|%d:it=%d,D=%h,mp=%h:" i opt.iterations opt.total_cost mp.total_cost;
      List.iter (Printf.bprintf b "%h;") opt_d;
      List.iter (Printf.bprintf b "%h;") mp_d)
    results;
  {
    setup;
    run_s;
    ops = !ops;
    digest = digest_of b;
    counts =
      [
        ("gallager.iterations", float_of_int !iters);
        ("core.steps", float_of_int (List.length results * mp_cfg.rounds * mp_cfg.ts_per_tl));
        ("gc.minor_words", words);
      ];
  }

(* ---- mpda-ba300 --------------------------------------------------- *)

(* Syncnet cold start on BA-[mpda_n] (m = 2) with dyadic costs
   (multiples of 0.25 in [0.25, 8]), then a closed loop of
   [churn_changes] single-link cost changes, each pumped to quiescence
   before the next. A change redraws one link's cost over the whole
   grid, never to the cost it has, as [mdrsim scale] does; such a
   redraw can re-route much of the network, so large repairs and SPF
   fallbacks are in the stream. The network, its initial costs and the
   changes are fixed: [churn_changes] distinct links, each redrawn
   once. The seed shuffles the order of the changes. Since no link
   changes twice, every order applies the same redraws. Drawing the
   changes from the seed instead moved the median reconvergence time
   by up to 83% between seeds (150 changes a pass), since a pass samples
   only a few hundred changes from a distribution whose deciles run from
   2 ms to 300 ms. *)
let draw_cost rng = 0.25 *. float_of_int (1 + Rng.int rng ~bound:32)

let mpda_ba300 sz ~seed () =
  let (topo, initial, changes), setup =
    setups sz.setup_reps (fun () ->
        let net_rng = Rng.substream ~seed:network_seed ~index:0 in
        let topo = Generators.barabasi_albert ~rng:net_rng ~n:sz.mpda_n ~m:2 () in
        let initial = Hashtbl.create 2048 in
        List.iter
          (fun (l : Graph.link) -> Hashtbl.replace initial (l.src, l.dst) (draw_cost net_rng))
          (Graph.links topo);
        let links = Array.of_list (Graph.links topo) in
        Rng.shuffle net_rng links;
        let changes =
          Array.init sz.churn_changes (fun i ->
              let (l : Graph.link) = links.(i) in
              let cur = Hashtbl.find initial (l.src, l.dst) in
              let c = ref (draw_cost net_rng) in
              while Float.equal !c cur do
                c := draw_cost net_rng
              done;
              (l.src, l.dst, !c))
        in
        Rng.shuffle (Rng.substream ~seed ~index:0) changes;
        (topo, initial, Array.to_list changes))
  in
  let table = Topo_table.create () in
  Hashtbl.iter (fun (head, tail) cost -> Topo_table.set table ~head ~tail ~cost) initial;
  let n = Graph.node_count topo in
  let check_exact net =
    Span.with_ "Syncnet.check_distances" (fun () -> Syncnet.check_distances net table)
  in
  let cost (l : Graph.link) = Hashtbl.find initial (l.src, l.dst) in
  let w0 = minor_words () in
  let (net, cold_ok), cold_s =
    timed (fun () ->
        let net = Span.with_ "Syncnet.create" (fun () -> Syncnet.create ~topo ~cost ()) in
        let ok = Span.with_ "Syncnet.run" (fun () -> Syncnet.run net) in
        (net, ok))
  in
  let cold_words = minor_words () -. w0 in
  let cold_msgs = Syncnet.messages_delivered net in
  check "mpda-ba300: cold start quiescent" (cold_ok && Syncnet.quiescent net);
  check "mpda-ba300: distances exact after cold start" (check_exact net);
  let ops = ref [] in
  let churn_s = ref 0.0 and churn_words = ref 0.0 in
  List.iteri
    (fun i (src, dst, c) ->
      let w1 = minor_words () in
      let ok, dt =
        timed (fun () ->
            Span.with_ "Syncnet.change_link_cost" (fun () ->
                Syncnet.change_link_cost net ~src ~dst ~cost:c);
            Span.with_ "Syncnet.run" (fun () -> Syncnet.run net))
      in
      churn_words := !churn_words +. (minor_words () -. w1);
      churn_s := !churn_s +. dt;
      ops := dt :: !ops;
      Topo_table.set table ~head:src ~tail:dst ~cost:c;
      check
        (Printf.sprintf "mpda-ba300: distances exact after change %d" (i + 1))
        (ok && Syncnet.quiescent net && check_exact net))
    changes;
  let churn_msgs = Syncnet.messages_delivered net - cold_msgs in
  let full, repairs, fallbacks = Syncnet.spf_totals net in
  let active = ref 0 in
  let b = Buffer.create (64 * n) in
  for r = 0 to n - 1 do
    let rt = Syncnet.router net r in
    active := !active + Router.stats_active_phases rt;
    Buffer.add_string b (Router.fingerprint rt)
  done;
  Printf.bprintf b "|cold=%d,churn=%d,spf=%d/%d/%d,act=%d" cold_msgs churn_msgs full repairs
    fallbacks !active;
  let per_msg x m = if m = 0 then 0.0 else x /. float_of_int m in
  let changes_f = float_of_int sz.churn_changes in
  {
    setup;
    run_s = cold_s +. !churn_s;
    ops = !ops;
    digest = digest_of b;
    counts =
      [
        ("routing.converge_s", cold_s);
        ("routing.cold_msgs", float_of_int cold_msgs);
        ("routing.cold_us_per_msg", 1e6 *. per_msg cold_s cold_msgs);
        ("routing.cold_words_per_msg", per_msg cold_words cold_msgs);
        ("routing.churn_msgs_per_change", float_of_int churn_msgs /. changes_f);
        ("routing.churn_us_per_msg", 1e6 *. per_msg !churn_s churn_msgs);
        ("routing.churn_words_per_msg", per_msg !churn_words churn_msgs);
        ("routing.active_phases", float_of_int !active);
        ("routing.spf_full_runs", float_of_int full);
        ("routing.spf_repairs", float_of_int repairs);
        ("routing.spf_fallbacks", float_of_int fallbacks);
        ("routing.spf_repair_ratio", per_msg (float_of_int repairs) (full + repairs));
        ("gc.minor_words", cold_words +. !churn_words);
      ];
  }

(* ---- route-server-ba100 ------------------------------------------- *)

(* One Procfault stream of [server_updates] updates on BA-[server_n]
   (m = 2), fixed with the network; the seed jitters every cost change
   by up to 5% and draws the reads. The stream is applied twice with
   the default server config: directly through Server.apply, then by
   one wire client over an in-memory pipe on a logical clock, one
   request in flight, with [reads_per_ack] route and split reads after
   every ack. Close, then restore. Each server's set-up (inputs and
   genesis) is one set-up sample. *)
let reads_per_ack = 8
let wire_dt = 0.02

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let file_size path = if Sys.file_exists path then (Unix.stat path).Unix.st_size else 0

let to_update = function
  | Procfault.Cost_change { src; dst; cost } -> Update.Set_cost { src; dst; cost }
  | Procfault.Fail { a; b } -> Update.Link_down { a; b }
  | Procfault.Restore { a; b; cost } -> Update.Link_up { a; b; cost }

let route_server_ba100 sz ~state ~seed () =
  let direct_dir = Filename.concat state "direct" and wire_dir = Filename.concat state "wire" in
  let cost = Procfault.default_base_cost in
  let server_updates = sz.server_updates in
  let set_up dir =
    timed (fun () ->
        let topo =
          Generators.barabasi_albert ~rng:(Rng.substream ~seed:network_seed ~index:0)
            ~n:sz.server_n ~m:2 ()
        in
        let jitter = Rng.substream ~seed ~index:1 in
        let stream =
          Array.of_list
            (List.map
               (fun u ->
                 match to_update u with
                 | Update.Set_cost { src; dst; cost } ->
                     Update.Set_cost
                       { src; dst; cost = cost *. Rng.uniform jitter ~lo:0.95 ~hi:1.05 }
                 | u -> u)
               (Procfault.stream ~rng:(Rng.substream ~seed:network_seed ~index:1) ~topo
                  ~updates:server_updates ()))
        in
        let n = Graph.node_count topo in
        let rrng = Rng.substream ~seed ~index:2 in
        let reads =
          Array.init 256 (fun _ ->
              let s = Rng.int rrng ~bound:n in
              let d = (s + 1 + Rng.int rrng ~bound:(n - 1)) mod n in
              (s, d))
        in
        let srv = Span.with_ "Server.create" (fun () -> Server.create ~dir ~topo ~cost ()) in
        (topo, stream, reads, srv))
  in
  let (topo, stream, reads, direct), setup_direct = set_up direct_dir in
  let (_, _, _, wired), setup_wire = set_up wire_dir in
  let setup = [ setup_direct; setup_wire ] in
  let b = Buffer.create 65536 in
  (* Direct pass. *)
  let words0 = minor_words () in
  let apply_ms = ref [] and apply_words = ref 0.0 and checkpoints = ref 0 in
  let snap = ref 0 in
  let fp_direct, direct_s =
    timed (fun () ->
        Array.iteri
          (fun i u ->
            let w0 = minor_words () in
            let (), dt =
              timed (fun () ->
                  Span.with_ "Server.apply" (fun () ->
                      Server.apply direct ~now:(float_of_int (i + 1)) u))
            in
            apply_words := !apply_words +. (minor_words () -. w0);
            apply_ms := (1000.0 *. dt) :: !apply_ms;
            let s = (Server.health direct ~now:(float_of_int (i + 1))).Server.snap_seq in
            if s <> !snap then begin
              incr checkpoints;
              snap := s
            end)
          stream;
        Server.fingerprint direct)
  in
  let (), checkpoint_s =
    timed (fun () -> Span.with_ "Server.checkpoint" (fun () -> Server.checkpoint direct))
  in
  incr checkpoints;
  Server.close direct;
  (* Wire pass. *)
  let wsrv = Wire_server.create wired in
  let dial ~now =
    let client_end, server_end = Transport.pipe () in
    ignore (Wire_server.attach wsrv ~now server_end);
    Some client_end
  in
  let client =
    Client.create ~rng:(Rng.substream ~seed ~index:3) ~dial ~updates:stream ()
  in
  let submit_ms = ref [] and read_s = ref 0.0 and queries = ref 0 in
  let next_read = ref 0 in
  (* The reads are timed alone; their answers go into the digest after
     the clock has stopped. *)
  let read_batch () =
    let answers, dt =
      timed (fun () ->
          List.init reads_per_ack (fun _ ->
              let s, d = reads.(!next_read mod Array.length reads) in
              incr next_read;
              let r = Span.with_ "Server.route" (fun () -> Server.route wired ~src:s ~dst:d) in
              let sp = Span.with_ "Server.split" (fun () -> Server.split wired ~src:s ~dst:d) in
              (r, sp)))
    in
    read_s := !read_s +. dt;
    queries := !queries + (2 * reads_per_ack);
    List.iter
      (fun ((r : Server.route), sp) ->
        Printf.bprintf b "%h,%d;" r.distance (List.length r.successors);
        List.iter (fun (k, f) -> Printf.bprintf b "%d:%h," k f) sp)
      answers
  in
  (* A submit's latency runs from the start of the client step that sent
     it to the end of the client step that handled its ack. The client
     sends the next submit in the step that handles an ack, so the reads
     made after an ack fall inside the next submit's window; their time,
     digest formatting included, is subtracted from it. *)
  let steps = ref 0 in
  let acked = ref 0 and pending = ref None and sent_at = ref 0.0 and reads_in_window = ref 0.0 in
  let (), wire_s =
    timed (fun () ->
        while (not (Client.finished client)) && !steps < 100 * server_updates do
          incr steps;
          let now = float_of_int !steps *. wire_dt in
          let c0 = clock () in
          Span.with_ "Client.step" (fun () -> Client.step client ~now);
          let c1 = clock () in
          let a = (Client.stats client).Client.acked in
          let reads_dt =
            if a > !acked then begin
              submit_ms := (1000.0 *. (c1 -. !sent_at -. !reads_in_window)) :: !submit_ms;
              acked := a;
              let r0 = clock () in
              read_batch ();
              clock () -. r0
            end
            else 0.0
          in
          (match Client.pending_seq client with
          | Some s when !pending <> Some s ->
              pending := Some s;
              sent_at := c0;
              reads_in_window := reads_dt
          | _ -> ());
          ignore (Span.with_ "Wire_server.step" (fun () -> Wire_server.step wsrv ~now))
        done)
  in
  let words = minor_words () -. words0 in
  let cstats = Client.stats client and wstats = Wire_server.stats wsrv in
  let fp_wire = Server.fingerprint wired in
  check "route-server: wire client finished"
    (match Client.phase client with Client.Done -> true | _ -> false);
  check "route-server: every submit Applied"
    (wstats.Wire_server.applied = server_updates
    && cstats.Client.acked = server_updates
    && wstats.Wire_server.duplicates + wstats.Wire_server.rejects + wstats.Wire_server.fenced
       + wstats.Wire_server.throttled
       = 0);
  check "route-server: wire fingerprint = direct fingerprint" (String.equal fp_wire fp_direct);
  check "route-server: client saw the server fingerprint"
    (Client.fingerprint client = Some fp_wire);
  check "route-server: LFI holds" (Server.lfi_ok wired);
  check "route-server: settled" (Server.settled wired);
  let health = Server.health wired ~now:(float_of_int !steps *. wire_dt) in
  let snapshot_bytes = file_size (Filename.concat wire_dir "snapshot.bin") in
  let journal_bytes = file_size (Filename.concat wire_dir "journal.bin") in
  Server.close wired;
  let restored, restore_s =
    timed (fun () ->
        Span.with_ "Server.restore" (fun () -> Server.restore ~dir:wire_dir ~topo ~cost ()))
  in
  let replayed =
    match (Server.health restored ~now:0.0).Server.last_restore with
    | Some r -> r.Server.replayed
    | None -> -1
  in
  check "route-server: restored fingerprint = direct fingerprint"
    (String.equal (Server.fingerprint restored) fp_direct);
  Server.close restored;
  Printf.bprintf b "|fp=%s|seq=%d|spf=%d/%d/%d|replayed=%d" fp_direct (Server.seq restored)
    health.spf_full_runs health.spf_repairs health.spf_fallbacks replayed;
  let apply_p50 = median !apply_ms in
  let submit_p50 = median !submit_ms in
  let all_spf = health.spf_full_runs + health.spf_repairs in
  {
    setup;
    run_s = direct_s +. checkpoint_s +. wire_s +. restore_s;
    ops = List.map (fun ms -> ms /. 1000.0) !submit_ms;
    digest = digest_of b;
    counts =
      [
        ("gc.minor_words", words);
        ("server.apply_ms_p50", apply_p50);
        ("server.apply_ms_p95", percentile !apply_ms 95.0);
        ("server.apply_words", !apply_words /. float_of_int server_updates);
        ("server.checkpoints", float_of_int !checkpoints);
        ("server.checkpoint_ms", 1000.0 *. checkpoint_s);
        ("server.snapshot_bytes", float_of_int snapshot_bytes);
        ("server.journal_bytes", float_of_int journal_bytes);
        ("server.replayed", float_of_int replayed);
        ("server.restore_s", restore_s);
        ("server.query_per_s", float_of_int !queries /. !read_s);
        ("wire.overhead_ms_p50", submit_p50 -. apply_p50);
        ("wire.frames", float_of_int wstats.Wire_server.frames);
        ("wire.retries", float_of_int cstats.Client.retries);
        ("wire.duplicates", float_of_int wstats.Wire_server.duplicates);
        ("routing.spf_full_runs", float_of_int health.spf_full_runs);
        ("routing.spf_repairs", float_of_int health.spf_repairs);
        ("routing.spf_fallbacks", float_of_int health.spf_fallbacks);
        ( "routing.spf_repair_ratio",
          if all_spf = 0 then 0.0
          else float_of_int health.spf_repairs /. float_of_int all_spf );
      ];
  }

(* ---- metrics ------------------------------------------------------ *)

let end_to_end =
  [
    ("setup_s", "s"); ("run_s", "s"); ("peak_heap_mb", "MB"); ("op_ms_p50", "ms");
    ("op_ms_tail", "ms");
  ]

(* Span name -> per-layer time metric (seconds of self time per pass). *)
let span_metrics =
  [
    ("Gallager.solve", "gallager.solve_s");
    ("Controller.run", "core.controller_s");
    ("Evaluate.per_flow_delays", "fluid.eval_s");
    ("Sim.run", "netsim.run_s");
    ("Syncnet.check_distances", "routing.check_s");
    ("Server.create", "server.genesis_s");
    ("Wire_server.step", "wire.step_s");
    ("Client.step", "client.step_s");
  ]

(* Per-layer metrics in print order, with units. Layers a workload does
   not reach read 0. *)
let per_layer =
  [
    ("gallager.solve_s", "s"); ("gallager.iterations", "count"); ("gallager.ms_per_iter", "ms");
    ("core.controller_s", "s"); ("core.ms_per_step", "ms"); ("fluid.eval_s", "s");
    ("netsim.run_s", "s"); ("netsim.kpkts_per_s", "kpkt/s"); ("netsim.pkts_delivered", "count");
    ("netsim.lsus", "count"); ("netsim.max_mean_queue", "pkts"); ("netsim.loop_violations", "count");
    ("routing.converge_s", "s"); ("routing.cold_msgs", "count"); ("routing.cold_us_per_msg", "us");
    ("routing.cold_words_per_msg", "words"); ("routing.churn_msgs_per_change", "count");
    ("routing.churn_us_per_msg", "us"); ("routing.churn_words_per_msg", "words");
    ("routing.active_phases", "count"); ("routing.spf_full_runs", "count");
    ("routing.spf_repairs", "count"); ("routing.spf_fallbacks", "count");
    ("routing.spf_repair_ratio", "ratio"); ("routing.check_s", "s");
    ("server.genesis_s", "s"); ("server.apply_ms_p50", "ms"); ("server.apply_ms_p95", "ms");
    ("server.apply_words", "words"); ("server.checkpoints", "count"); ("server.checkpoint_ms", "ms");
    ("server.snapshot_bytes", "bytes"); ("server.journal_bytes", "bytes"); ("server.replayed", "count");
    ("server.restore_s", "s"); ("server.query_per_s", "1/s");
    ("wire.step_s", "s"); ("client.step_s", "s"); ("wire.overhead_ms_p50", "ms");
    ("wire.frames", "count"); ("wire.retries", "count"); ("wire.duplicates", "count");
    ("gc.minor_words", "words"); ("gc.major_collections", "count");
    ("trace.overhead_s", "s");
  ]

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed body

(* ---- main loop ---------------------------------------------------- *)

let state = Filename.concat "_mdrbench" "state"

let workloads =
  [
    ("paper-cairn", paper_cairn);
    ("fluid-ba60", fluid_ba60);
    ("mpda-ba300", mpda_ba300);
    ("route-server-ba100", route_server_ba100 ~state);
  ]

(* Untraced runs make at least one pass; traced runs at least two, one
   traced and one untraced, for the overhead line. *)
let min_passes ~traced = if traced then 2 else 1

let usage () =
  prerr_endline "usage: mdrbench --workload NAME --seed N --seconds S --trace 0|1 [--quick]";
  prerr_endline ("workloads: " ^ String.concat " " (List.map fst workloads));
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let sizes = ref full in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--quick" :: rest -> sizes := quick; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run_pass =
    match List.assoc_opt !workload workloads with
    | Some f when !seed >= 1 && !seconds > 0.0 && (!trace = 0 || !trace = 1) -> f !sizes
    | _ -> usage ()
  in
  let seed = !seed and traced = !trace = 1 in
  let out = Filename.dirname state in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  remove_tree state;
  Sys.mkdir state 0o755;
  (* Untraced passes give the end-to-end numbers; with --trace 1, odd
     passes are traced and each keeps its own spans. *)
  let t0 = clock () in
  let passes = ref [] in
  let i = ref 0 in
  while !i < min_passes ~traced || clock () -. t0 < !seconds do
    let on = traced && !i mod 2 = 1 in
    Span.on := on;
    Span.recorded := [];
    (* Start every pass from a compacted heap, so a pass does not pay
       for the garbage the one before it left. *)
    Gc.compact ();
    let g0 = (Gc.quick_stat ()).Gc.major_collections in
    let p = Span.with_ "pass" (fun () -> run_pass ~seed ()) in
    let majors = (Gc.quick_stat ()).Gc.major_collections - g0 in
    passes := (on, p, majors, Span.all ()) :: !passes;
    incr i
  done;
  remove_tree state;
  let passes = List.rev !passes in
  let plain = List.filter (fun (on, _, _, _) -> not on) passes in
  let digests = List.sort_uniq String.compare (List.map (fun (_, p, _, _) -> p.digest) passes) in
  check "every pass of the run gives the same digest" (List.length digests = 1);
  let digest = List.hd digests in
  let med f l = median (List.map f l) in
  let e2e_value = function
    | "setup_s" -> median (List.concat_map (fun (_, p, _, _) -> p.setup) plain)
    | "run_s" -> med (fun (_, p, _, _) -> p.run_s) plain
    | "peak_heap_mb" ->
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
        /. 1048576.0
    | "op_ms_p50" -> 1000.0 *. med (fun (_, p, _, _) -> median p.ops) plain
    | _ -> 1000.0 *. med (fun (_, p, _, _) -> tail p.ops) plain
  in
  let (_, first, _, _) = List.hd passes in
  Printf.printf "workload %s seed %d: %d passes (%d traced), %d ops per pass, tail = %s\n"
    !workload seed (List.length passes)
    (List.length passes - List.length plain)
    (List.length first.ops) (tail_label (List.length first.ops));
  Printf.printf "digest %s %s\n" !workload digest;
  if not traced then
    print_result (List.map (fun (name, unit) -> (name, unit, e2e_value name)) end_to_end)
  else begin
    let traced_passes = List.filter (fun (on, _, _, _) -> on) passes in
    let count name (p : pass) = Option.value ~default:0.0 (List.assoc_opt name p.counts) in
    (* One evaluator per traced pass: metric name -> value. *)
    let value (_, p, majors, spans) =
      let selfs = Span.self_by_name spans in
      let layer_s m =
        let span = fst (List.find (fun (_, mm) -> String.equal mm m) span_metrics) in
        List.fold_left
          (fun acc (n, _, self) -> if String.equal n span then acc +. self else acc)
          0.0 selfs
      in
      let ratio num den = if den = 0.0 then 0.0 else num /. den in
      function
      | "gallager.ms_per_iter" ->
          ratio (1000.0 *. layer_s "gallager.solve_s") (count "gallager.iterations" p)
      | "core.ms_per_step" -> ratio (1000.0 *. layer_s "core.controller_s") (count "core.steps" p)
      | "netsim.kpkts_per_s" -> ratio (count "netsim.pkts" p /. 1000.0) (layer_s "netsim.run_s")
      | "gc.major_collections" -> float_of_int majors
      | m when List.exists (fun (_, mm) -> String.equal mm m) span_metrics -> layer_s m
      | m -> count m p
    in
    let plain_run = med (fun (_, p, _, _) -> p.run_s) plain in
    let traced_run = med (fun (_, p, _, _) -> p.run_s) traced_passes in
    let evaluators = List.map value traced_passes in
    let layer_metrics =
      List.map
        (fun (name, unit) ->
          let v =
            if String.equal name "trace.overhead_s" then traced_run -. plain_run
            else median (List.map (fun f -> f name) evaluators)
          in
          (name, unit, v))
        per_layer
    in
    (* Self-time table over all traced passes, and the span file. *)
    let spans = List.concat_map (fun (_, _, _, s) -> s) traced_passes in
    let table = Span.self_by_name spans in
    let total = List.fold_left (fun a (_, _, s) -> a +. s) 0.0 table in
    Printf.printf "self time over %d traced pass(es):\n" (List.length traced_passes);
    Printf.printf "  %-26s %8s %12s %7s\n" "span" "calls" "self s" "share";
    List.iter
      (fun (name, calls, self) ->
        Printf.printf "  %-26s %8d %12.6f %6.1f%%\n" name calls self
          (if total > 0.0 then 100.0 *. self /. total else 0.0))
      table;
    Printf.printf "tracing overhead: traced run_s %.6f - untraced run_s %.6f = %+.6f s (%+.2f%%)\n"
      traced_run plain_run (traced_run -. plain_run)
      (100.0 *. (traced_run -. plain_run) /. plain_run);
    let file = Filename.concat out (Printf.sprintf "spans-%s-seed%d.json" !workload seed) in
    Span.write_json file spans;
    Printf.printf "spans written to %s (%d spans)\n" file (List.length spans);
    print_result layer_metrics
  end;
  exit (if !failed = 0 then 0 else 1)
