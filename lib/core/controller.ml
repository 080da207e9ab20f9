module Graph = Mdr_topology.Graph
module Fluid = Mdr_fluid
module Params = Fluid.Params
module Flows = Fluid.Flows
module Traffic = Fluid.Traffic
module Evaluate = Fluid.Evaluate
module Dijkstra = Mdr_routing.Dijkstra

type scheme = Mp | Sp | Ecmp

type config = {
  scheme : scheme;
  rounds : int;
  ts_per_tl : int;
  damping : float;
}

let default_config = { scheme = Mp; rounds = 30; ts_per_tl = 5; damping = 1.0 }

type result = {
  params : Params.t;
  flows : Flows.t;
  total_cost : float;
  avg_delay : float;
  delay_history : float list;
}

let successor_sets topo ~cost ~dst =
  let dist = Dijkstra.distances_to topo ~dst ~cost in
  fun node ->
    if node = dst then []
    else List.filter (fun k -> dist.(k) < dist.(node)) (Graph.neighbors topo node)

(* A cost function over link records reading costs by edge id, for
   Dijkstra. *)
let by_edge edges costs (l : Graph.link) =
  costs.(Params.find_edge edges ~src:l.src ~dst:l.dst)

(* One long-term (T_l) update: recompute distances and successor sets
   from the long-term link costs [long_cost] (by edge id). IH reseeds
   the fractions only for pairs whose successor set actually changed —
   the paper runs IH "when S is computed for the first time or
   recomputed again due to long-term route changes"; untouched pairs
   keep the distribution AH has been refining. Returns the
   per-destination distance tables that the following T_s steps treat
   as fixed long-term information. *)
let long_term_update params ~destinations ~scheme ~long_cost =
  let topo = Params.topology params in
  let n = Graph.node_count topo in
  let cost = by_edge (Params.edges params) long_cost in
  let distances = Hashtbl.create 8 in
  List.iter
    (fun dst ->
      let dist = Dijkstra.distances_to topo ~dst ~cost in
      Hashtbl.replace distances dst dist;
      for node = 0 to n - 1 do
        if node <> dst then begin
          let nbrs = Params.neighbor_array params node in
          let e0 = Params.edge_base params node in
          (* D_jk + l_ik through the neighbour at [slot]. *)
          let through slot = dist.(nbrs.(slot)) +. long_cost.(e0 + slot) in
          let closer = ref [] in
          for slot = Array.length nbrs - 1 downto 0 do
            if dist.(nbrs.(slot)) < dist.(node) then closer := slot :: !closer
          done;
          let closer = !closer in
          let best_of candidates =
            List.fold_left
              (fun best slot ->
                let d = through slot in
                match best with
                | Some (_, bd) when bd <= d -> best
                | _ -> Some (slot, d))
              None candidates
          in
          let chosen =
            match (closer, scheme) with
            | [], _ -> []
            | _ :: _, Sp ->
              (* Single best successor: minimise D_jk + l_ik, ties to
                 the earlier neighbour. *)
              (match best_of closer with Some (slot, _) -> [ slot ] | None -> [])
            | _ :: _, Ecmp -> (
              (* OSPF-style: only successors whose total cost equals
                 the best, split evenly (no AH on ECMP entries). *)
              match best_of closer with
              | None -> []
              | Some (_, bd) ->
                List.filter (fun slot -> through slot <= bd *. (1.0 +. 1e-9)) closer)
            | closer, Mp -> closer
          in
          let current = List.sort compare (Params.successors params ~node ~dst) in
          if List.map (fun slot -> nbrs.(slot)) chosen <> current then begin
            match chosen with
            | [] -> Params.clear params ~node ~dst
            | [ slot ] -> Params.set_single params ~node ~dst ~via:nbrs.(slot)
            | _ when scheme = Ecmp ->
              let even = 1.0 /. float_of_int (List.length chosen) in
              Params.set_fractions params ~node ~dst
                (List.map (fun slot -> (nbrs.(slot), even)) chosen)
            | _ ->
              let entries = List.map (fun slot -> (nbrs.(slot), through slot)) chosen in
              Params.set_fractions params ~node ~dst (Heuristics.initial entries)
          end
        end
      done)
    destinations;
  distances

(* One short-term (T_s) update: AH on every routed pair. Neighbor
   distances are the stored long-term values; only the adjacent link
   cost, [costs] by edge id at the current flows, is re-measured — the
   split of time scales at the heart of the framework. *)
let short_term_update params ~destinations ~costs ~damping ~distances =
  let n = Graph.node_count (Params.topology params) in
  List.iter
    (fun dst ->
      match Hashtbl.find_opt distances dst with
      | None -> ()
      | Some dist ->
        for node = 0 to n - 1 do
          if node <> dst then begin
            match Params.fractions params ~node ~dst with
            | [] | [ _ ] -> ()
            | current ->
              let e0 = Params.edge_base params node in
              let through k = dist.(k) +. costs.(e0 + Params.slot params ~node ~via:k) in
              let adjusted = Heuristics.adjust ~damping ~current ~through () in
              Params.set_fractions params ~node ~dst adjusted
          end
        done)
    destinations

(* Long-term link costs are the *average* of the short-term marginal
   samples observed during the previous T_l interval — the paper's
   "link costs measured over longer intervals T_l" — which damps the
   route flapping an instantaneous cost snapshot would cause. Sums are
   kept by edge id. *)
module Cost_window = struct
  type t = {
    sums : float array;
    mutable samples : int;
  }

  let create links = { sums = Array.make links 0.0; samples = 0 }

  let record t costs =
    t.samples <- t.samples + 1;
    Array.iteri (fun e c -> t.sums.(e) <- t.sums.(e) +. c) costs

  let means t =
    if t.samples = 0 then Array.map (fun _ -> infinity) t.sums
    else
      let samples = float_of_int t.samples in
      Array.map (fun sum -> sum /. samples) t.sums

  let reset t =
    Array.fill t.sums 0 (Array.length t.sums) 0.0;
    t.samples <- 0
end

let run ?(config = default_config) model topo traffic =
  if config.rounds < 1 then invalid_arg "Controller.run: rounds < 1";
  if config.ts_per_tl < 1 then invalid_arg "Controller.run: ts_per_tl < 1";
  let params = Params.create topo in
  let destinations = Traffic.destinations traffic in
  let history = ref [] in
  let flows = ref (Flows.compute params traffic) in
  (* The marginal costs at the current flows, refreshed by [record] and
     read by the AH step that follows it. *)
  let costs = Evaluate.link_costs model !flows in
  let window = Cost_window.create (Array.length costs) in
  let record () =
    history := Evaluate.average_delay model !flows traffic :: !history;
    ignore (Evaluate.link_costs ~into:costs model !flows);
    Cost_window.record window costs
  in
  for round = 1 to config.rounds do
    let long_cost =
      if round = 1 then costs else Cost_window.means window
    in
    Cost_window.reset window;
    let distances =
      long_term_update params ~destinations ~scheme:config.scheme ~long_cost
    in
    flows := Flows.compute ~into:!flows params traffic;
    record ();
    for _step = 2 to config.ts_per_tl do
      (* ECMP keeps its even split: OSPF has no load-balancing step. *)
      if config.scheme <> Ecmp then
        short_term_update params ~destinations ~costs ~damping:config.damping
          ~distances;
      flows := Flows.compute ~into:!flows params traffic;
      record ()
    done
  done;
  let delay_history = List.rev !history in
  (* Steady-state figure: time-average over the second half of the run,
     the analogue of the paper's measured per-flow averages. *)
  let steady =
    let k = List.length delay_history in
    let tail = List.filteri (fun i _ -> i >= k / 2) delay_history in
    Mdr_util.Stats.mean_of_list tail
  in
  {
    params;
    flows = !flows;
    total_cost = Evaluate.total_cost model !flows;
    avg_delay = steady;
    delay_history;
  }
