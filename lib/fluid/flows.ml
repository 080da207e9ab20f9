module Graph = Mdr_topology.Graph

exception Cyclic_routing of int

type t = {
  node_flows : float array array;
  link_flows : float array;
  edges : Graph.csr;
}

type scratch = { indegree : int array; order : int array }

let scratch n = { indegree = Array.make n 0; order = Array.make n 0 }

(* Kahn's algorithm over SG_dst (edge i -> k when phi_{i,dst,k} > 0),
   with the order buffer doubling as the FIFO of ready routers: a
   router is emitted in the order it became ready. *)
let sort_into s params ~dst =
  let n = Graph.node_count (Params.topology params) in
  if Array.length s.order < n then invalid_arg "Flows.sort_into: scratch too small";
  let indegree = s.indegree and order = s.order in
  Array.fill indegree 0 n 0;
  for node = 0 to n - 1 do
    let row = Params.row params ~node ~dst and nbrs = Params.neighbor_array params node in
    for slot = 0 to Array.length row - 1 do
      if row.(slot) > 0.0 then indegree.(nbrs.(slot)) <- indegree.(nbrs.(slot)) + 1
    done
  done;
  let tail = ref 0 in
  for node = 0 to n - 1 do
    if indegree.(node) = 0 then begin
      order.(!tail) <- node;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let node = order.(!head) in
    incr head;
    let row = Params.row params ~node ~dst and nbrs = Params.neighbor_array params node in
    for slot = 0 to Array.length row - 1 do
      if row.(slot) > 0.0 then begin
        let k = nbrs.(slot) in
        indegree.(k) <- indegree.(k) - 1;
        if indegree.(k) = 0 then begin
          order.(!tail) <- k;
          incr tail
        end
      end
    done
  done;
  if !tail <> n then raise (Cyclic_routing dst);
  order

let topological_order params ~dst =
  let n = Graph.node_count (Params.topology params) in
  Array.to_list (sort_into (scratch n) params ~dst)

(* Link flows accumulate per edge in destination order, one share per
   destination, so each sum runs in the order the destinations are
   solved. *)
let solve_destination_exact params traffic s node_flows link_flows ~dst =
  let order = sort_into s params ~dst in
  let rates = Traffic.matrix traffic in
  for i = 0 to Array.length node_flows - 1 do
    let node = order.(i) in
    if node <> dst then begin
      let t_node = node_flows.(node).(dst) +. rates.(node).(dst) in
      node_flows.(node).(dst) <- t_node;
      if t_node > 0.0 then begin
        let row = Params.row params ~node ~dst and nbrs = Params.neighbor_array params node in
        let e0 = Params.edge_base params node in
        for slot = 0 to Array.length row - 1 do
          let frac = row.(slot) in
          if frac > 0.0 then begin
            let via = nbrs.(slot) and share = t_node *. frac in
            if via <> dst then node_flows.(via).(dst) <- node_flows.(via).(dst) +. share;
            link_flows.(e0 + slot) <- link_flows.(e0 + slot) +. share
          end
        done
      end
    end
  done

let solve_destination_iterative params traffic node_flows link_flows ~dst =
  let n = Array.length node_flows in
  let t_cur = Array.make n 0.0 in
  let t_next = Array.make n 0.0 in
  let max_iters = 10_000 and eps = 1e-9 in
  let rec iterate iter =
    for i = 0 to n - 1 do
      t_next.(i) <- (if i = dst then 0.0 else Traffic.rate traffic ~src:i ~dst)
    done;
    for k = 0 to n - 1 do
      if k <> dst && t_cur.(k) > 0.0 then begin
        let row = Params.row params ~node:k ~dst and nbrs = Params.neighbor_array params k in
        for slot = 0 to Array.length row - 1 do
          let via = nbrs.(slot) in
          if row.(slot) > 0.0 && via <> dst then
            t_next.(via) <- t_next.(via) +. (t_cur.(k) *. row.(slot))
        done
      end
    done;
    let delta = ref 0.0 in
    for i = 0 to n - 1 do
      delta := Float.max !delta (Float.abs (t_next.(i) -. t_cur.(i)));
      t_cur.(i) <- t_next.(i)
    done;
    if !delta > eps && iter < max_iters then iterate (iter + 1)
  in
  iterate 0;
  for node = 0 to n - 1 do
    if node <> dst then begin
      node_flows.(node).(dst) <- t_cur.(node);
      if t_cur.(node) > 0.0 then begin
        let row = Params.row params ~node ~dst and e0 = Params.edge_base params node in
        for slot = 0 to Array.length row - 1 do
          if row.(slot) > 0.0 then
            link_flows.(e0 + slot) <- link_flows.(e0 + slot) +. (t_cur.(node) *. row.(slot))
        done
      end
    end
  done

let compute ?(iterative_fallback = false) ?into params traffic =
  let topo = Params.topology params in
  let n = Graph.node_count topo in
  if Traffic.node_count traffic <> n then
    invalid_arg "Flows.compute: traffic/topology node count mismatch";
  let edges = Params.edges params in
  let flows =
    match into with
    | None ->
      {
        node_flows = Array.make_matrix n n 0.0;
        link_flows = Array.make (Array.length edges.links) 0.0;
        edges;
      }
    | Some t ->
      if not (Params.same_edges t.edges edges) then
        invalid_arg "Flows.compute: into was computed over a different topology";
      Array.iter (fun row -> Array.fill row 0 n 0.0) t.node_flows;
      Array.fill t.link_flows 0 (Array.length t.link_flows) 0.0;
      t
  in
  let s = scratch n in
  let solve dst =
    try solve_destination_exact params traffic s flows.node_flows flows.link_flows ~dst
    with Cyclic_routing _ when iterative_fallback ->
      (* Exact pass may have left partial state; clear this column. *)
      for i = 0 to n - 1 do
        flows.node_flows.(i).(dst) <- 0.0
      done;
      solve_destination_iterative params traffic flows.node_flows flows.link_flows ~dst
  in
  List.iter solve (Traffic.destinations traffic);
  flows

let link_flow t ~src ~dst =
  let e = Params.find_edge t.edges ~src ~dst in
  if e < 0 then 0.0 else t.link_flows.(e)

let max_utilization params t ~packet_size =
  if not (Params.same_edges (Params.edges params) t.edges) then
    invalid_arg "Flows.max_utilization: flows of a different topology";
  let worst = ref 0.0 in
  Array.iteri
    (fun e (l : Graph.link) ->
      let cap_pkts = l.capacity /. packet_size in
      worst := Float.max !worst (t.link_flows.(e) /. cap_pkts))
    t.edges.links;
  !worst
