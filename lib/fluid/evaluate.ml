module Graph = Mdr_topology.Graph

type model = {
  topo : Graph.t;
  packet_size : float;
  delays : Delay.t array;  (* by edge id *)
  fold_order : int array;  (* edge ids in [Graph.fold_links] order *)
}

(* Edge ids come from the insertion order alone: the out-CSR lists each
   router's links in the order they were added, so a link's id is its
   router's row offset plus the number of the router's links added
   before it. Building the model this way leaves the CSR view to be
   built by whoever first needs it. *)
let model ?rho_max topo ~packet_size =
  let n = Graph.node_count topo in
  let links = Array.of_list (Graph.links topo) in
  let next = Array.make (n + 1) 0 in
  Array.iter (fun (l : Graph.link) -> next.(l.src + 1) <- next.(l.src + 1) + 1) links;
  for u = 1 to n do
    next.(u) <- next.(u) + next.(u - 1)
  done;
  let fold_order =
    Array.map
      (fun (l : Graph.link) ->
        let e = next.(l.src) in
        next.(l.src) <- e + 1;
        e)
      links
  in
  let link_of = Array.make (Array.length links) 0 in
  Array.iteri (fun i e -> link_of.(e) <- i) fold_order;
  {
    topo;
    packet_size;
    delays =
      Array.init (Array.length links) (fun e ->
          Delay.of_link ?rho_max ~packet_size links.(link_of.(e)));
    fold_order;
  }

let packet_size m = m.packet_size

(* The topology's out-CSR, which the delays are indexed by as long as
   no link was added since the model was built. *)
let edges m =
  let edges = Graph.out_csr m.topo in
  if Array.length edges.links <> Array.length m.delays then
    invalid_arg "Evaluate: links were added to the topology after the model was built";
  edges

let check_flows m (flows : Flows.t) =
  if not (Params.same_edges (edges m) flows.edges) then
    invalid_arg "Evaluate: flows computed over a different topology than the model's"

let check_params m params =
  if not (Params.same_edges (edges m) (Params.edges params)) then
    invalid_arg "Evaluate: routing table over a different topology than the model's"

let delay_of_link m ~src ~dst =
  let e = Params.find_edge (edges m) ~src ~dst in
  if e < 0 then
    invalid_arg
      (Printf.sprintf "Evaluate.delay_of_link: no link %s -> %s"
         (Graph.name m.topo src) (Graph.name m.topo dst));
  m.delays.(e)

let delay_of_edge m e = m.delays.(e)

let total_cost m flows =
  check_flows m flows;
  let lf = flows.Flows.link_flows in
  let acc = ref 0.0 in
  for i = 0 to Array.length m.fold_order - 1 do
    let e = m.fold_order.(i) in
    let f = lf.(e) in
    if not (f <= 0.0) then acc := !acc +. Delay.cost m.delays.(e) f
  done;
  !acc

let average_delay m flows traffic =
  let total = Traffic.total_rate traffic in
  if total <= 0.0 then 0.0 else total_cost m flows /. total

let link_cost m flows ~src ~dst =
  check_flows m flows;
  let f = Flows.link_flow flows ~src ~dst in
  Delay.marginal (delay_of_link m ~src ~dst) f

let saturated_links m flows =
  check_flows m flows;
  let links = flows.Flows.edges.links in
  List.filter_map
    (fun e ->
      if Delay.saturated m.delays.(e) flows.Flows.link_flows.(e) then
        Some (links.(e).Graph.src, links.(e).Graph.dst)
      else None)
    (Array.to_list m.fold_order)

let costs_finite m flows =
  check_flows m flows;
  Array.for_all
    (fun e ->
      let f = flows.Flows.link_flows.(e) and d = m.delays.(e) in
      Float.is_finite f && f >= 0.0
      && Float.is_finite (Delay.cost d f)
      && Float.is_finite (Delay.marginal d f)
      && Delay.cost d f >= 0.0
      && Delay.marginal d f > 0.0)
    m.fold_order

(* One value per edge, from the delay model and the edge's flow. *)
let per_edge ?into m flows value =
  check_flows m flows;
  let len = Array.length m.delays in
  let out =
    match into with
    | None -> Array.make len 0.0
    | Some a ->
      if Array.length a < len then
        invalid_arg "Evaluate: into buffer shorter than link count";
      a
  in
  let lf = flows.Flows.link_flows in
  for e = 0 to len - 1 do
    out.(e) <- value m.delays.(e) lf.(e)
  done;
  out

let link_costs ?into m flows = per_edge ?into m flows Delay.marginal

(* Shared downstream recursion for both expected delays (per-packet
   sojourn) and marginal distances (marginal link cost): values are
   computed in reverse topological order of SG_dst, so each router's
   successors are resolved before the router itself. Each router's sum
   runs over its slots in order. *)
let distances_over ?into ?scratch m params ~costs ~dst =
  check_params m params;
  let n = Graph.node_count m.topo in
  if Array.length costs < Array.length m.delays then
    invalid_arg "Evaluate: costs shorter than link count";
  let values =
    match into with
    | None -> Array.make n infinity
    | Some a ->
      if Array.length a < n then
        invalid_arg "Evaluate: into buffer shorter than node count";
      Array.fill a 0 n infinity;
      a
  in
  values.(dst) <- 0.0;
  let scratch = match scratch with Some s -> s | None -> Flows.scratch n in
  let order =
    try Flows.sort_into scratch params ~dst
    with Flows.Cyclic_routing _ ->
      invalid_arg "Evaluate: successor graph has a cycle"
  in
  (* Topological order lists predecessors first; successors last. *)
  for i = n - 1 downto 0 do
    let node = order.(i) in
    if node <> dst then begin
      let row = Params.row params ~node ~dst and nbrs = Params.neighbor_array params node in
      let e0 = Params.edge_base params node in
      let total = ref 0.0 and routed = ref false in
      for slot = 0 to Array.length row - 1 do
        let frac = row.(slot) in
        if frac > 0.0 then begin
          routed := true;
          total := !total +. (frac *. (costs.(e0 + slot) +. values.(nbrs.(slot))))
        end
      done;
      if !routed then values.(node) <- !total
    end
  done;
  values

let sojourns m flows = per_edge m flows Delay.sojourn

let expected_delay m params flows ~src ~dst =
  (distances_over m params ~costs:(sojourns m flows) ~dst).(src)

let per_flow_delays m params flows traffic =
  let costs = sojourns m flows in
  let scratch = Flows.scratch (Graph.node_count m.topo) in
  let cache = Hashtbl.create 8 in
  let array_for dst =
    match Hashtbl.find_opt cache dst with
    | Some a -> a
    | None ->
      let a = distances_over ~scratch m params ~costs ~dst in
      Hashtbl.replace cache dst a;
      a
  in
  List.map
    (fun (flow : Traffic.flow) -> (flow, (array_for flow.dst).(flow.src)))
    (Traffic.flows traffic)

let marginal_distances ?into m params flows ~dst =
  distances_over ?into m params ~costs:(link_costs m flows) ~dst
