module Graph = Mdr_topology.Graph
module Fluid = Mdr_fluid
module Params = Fluid.Params
module Flows = Fluid.Flows
module Traffic = Fluid.Traffic
module Evaluate = Fluid.Evaluate
module Delay = Fluid.Delay
module Feasibility = Fluid.Feasibility

type degradation = {
  admitted_fraction : float;
  shed : (Traffic.flow * float) list;
  per_destination : (int * float) list;
  reason : [ `Min_cut | `No_convergence ];
}

type status = Feasible | Degraded of degradation

type result = {
  params : Params.t;
  flows : Flows.t;
  total_cost : float;
  avg_delay : float;
  iterations : int;
  history : float list;
  converged : bool;
  status : status;
  admitted : Traffic.t;
}

let spf_params model topo =
  let params = Params.create topo in
  let n = Graph.node_count topo in
  let zero_flow_cost (l : Graph.link) =
    Delay.marginal (Evaluate.delay_of_link model ~src:l.src ~dst:l.dst) 0.0
  in
  let ws = Mdr_routing.Dijkstra.workspace () in
  for dst = 0 to n - 1 do
    let dist = Mdr_routing.Dijkstra.distances_to ~ws topo ~dst ~cost:zero_flow_cost in
    for node = 0 to n - 1 do
      if node <> dst then begin
        (* Best next hop: the neighbor minimising link cost + its
           distance, ties to the lower id (deterministic trees). *)
        let best =
          List.fold_left
            (fun best k ->
              let link = Graph.link_exn topo ~src:node ~dst:k in
              let d = zero_flow_cost link +. dist.(k) in
              match best with
              | Some (_, bd) when bd <= d -> best
              | _ -> if Float.is_finite d then Some (k, d) else best)
            None (Graph.neighbors topo node)
        in
        match best with
        | Some (k, _) -> Params.set_single params ~node ~dst ~via:k
        | None -> ()
      end
    done
  done;
  params

(* Buffers one solve reuses for every destination of every iteration:
   the marginal distances, the improper marks, the DAG sort, the
   marginal link costs by edge id and one routing row by slot. *)
type workspace = {
  delta : float array;
  improper : bool array;
  dag : Flows.scratch;
  costs : float array;
  next : float array;
}

let workspace topo =
  let n = Graph.node_count topo in
  let csr = Graph.out_csr topo in
  let max_degree = ref 0 in
  for i = 0 to n - 1 do
    max_degree := max !max_degree (csr.row.(i + 1) - csr.row.(i))
  done;
  {
    delta = Array.make n infinity;
    improper = Array.make n false;
    dag = Flows.scratch n;
    costs = Array.make (Array.length csr.links) 0.0;
    next = Array.make !max_degree 0.0;
  }

(* Improper nodes for a destination: a node is improper when one of its
   routed links goes uphill in marginal distance, or when some
   successor is improper. Blocking flow additions toward improper
   neighbors is Gallager's device for keeping successor graphs acyclic
   while delta evolves. *)
let improper_nodes ws params delta ~dst =
  let n = Array.length ws.improper in
  let improper = ws.improper in
  Array.fill improper 0 n false;
  let order = Flows.sort_into ws.dag params ~dst in
  (* Successors resolve before the nodes that use them. *)
  for i = n - 1 downto 0 do
    let node = order.(i) in
    if node <> dst then begin
      let row = Params.row params ~node ~dst and nbrs = Params.neighbor_array params node in
      for slot = 0 to Array.length row - 1 do
        let k = nbrs.(slot) in
        if row.(slot) > 0.0 && (delta.(k) >= delta.(node) || improper.(k)) then
          improper.(node) <- true
      done
    end
  done;
  improper

(* [ws.costs] holds the marginal link costs at [flows]. The new row is
   built in [ws.next] by slot and summed best hop first, then by slot;
   the golden digests pin that summation order. *)
let update_destination ~second_order ws model params flows ~eta ~dst =
  let n = Array.length ws.delta in
  let costs = ws.costs and next = ws.next in
  let delta =
    Evaluate.distances_over ~into:ws.delta ~scratch:ws.dag model params ~costs ~dst
  in
  let improper = improper_nodes ws params delta ~dst in
  let max_change = ref 0.0 in
  for node = 0 to n - 1 do
    if node <> dst then begin
      let nbrs = Params.neighbor_array params node in
      let row = Params.row params ~node ~dst in
      let e0 = Params.edge_base params node in
      let degree = Array.length nbrs in
      (* Best hop: the lowest finite marginal distance l_ik + delta_k
         over the slots not blocked, ties to the earlier slot. The sum
         is written out at each use, not in a local function, so the
         float stays unboxed. *)
      let best = ref (-1) and dmin = ref infinity in
      for slot = 0 to degree - 1 do
        let k = nbrs.(slot) in
        let blocked =
          Float.equal row.(slot) 0.0 && (delta.(k) >= delta.(node) || improper.(k))
        in
        if not blocked then begin
          let d = costs.(e0 + slot) +. delta.(k) in
          if not (!best >= 0 && !dmin <= d) && Float.is_finite d then begin
            best := slot;
            dmin := d
          end
        end
      done;
      if !best >= 0 then begin
        let kmin = !best and dmin = !dmin in
        let t_node = flows.Flows.node_flows.(node).(dst) in
        let moved = ref 0.0 in
        for slot = 0 to degree - 1 do
          let p = row.(slot) in
          next.(slot) <- 0.0;
          if slot <> kmin && not (p <= 0.0) then begin
            let reduction =
              if t_node > 0.0 then begin
                (* Second-order scaling (Bertsekas-Gallager):
                   normalise the step by the curvature of the two
                   links traded against each other, making eta
                   dimensionless and far less input-dependent. *)
                let scale =
                  if second_order then begin
                    (* Newton-style: d2(D_T)/d(phi)^2 ~ t^2 (D''_k
                       + D''_kmin); the gradient is t a_k, so the
                       step is a_k / (t (D''_k + D''_kmin)). *)
                    let second slot =
                      let e = e0 + slot in
                      Delay.second (Evaluate.delay_of_edge model e) flows.Flows.link_flows.(e)
                    in
                    Float.max 1e-12 (second slot +. second kmin)
                  end
                  else 1.0
                in
                let through = costs.(e0 + slot) +. delta.(nbrs.(slot)) in
                Float.min p (eta *. (through -. dmin) /. (t_node *. scale))
              end
              else p (* no traffic: collapse onto the best hop *)
            in
            moved := !moved +. reduction;
            let remaining = p -. reduction in
            if remaining > 1e-12 then next.(slot) <- remaining
          end
        done;
        next.(kmin) <- row.(kmin) +. !moved;
        (* Guard against drift before writing back. *)
        let total = ref next.(kmin) in
        for slot = 0 to degree - 1 do
          if slot <> kmin then total := !total +. next.(slot)
        done;
        for slot = 0 to degree - 1 do
          next.(slot) <- next.(slot) /. !total
        done;
        max_change := Float.max !max_change !moved;
        Params.set_slots params ~node ~dst ~first:kmin next
      end
    end
  done;
  !max_change

(* The gradient-projection loop itself, run on an (already admitted)
   traffic matrix; feasibility handling lives in [solve]. *)
let solve_admitted ~eta ~adaptive ~second_order ~max_iters ~tol ?init model topo
    traffic =
  if eta <= 0.0 then invalid_arg "Gallager.solve: eta <= 0";
  let params =
    match init with Some p -> Params.copy p | None -> spf_params model topo
  in
  let n = Graph.node_count topo in
  let destinations = List.filter (fun d -> d < n) (Traffic.destinations traffic) in
  let tol_move = Float.max tol 1e-8 in
  (* Two flow buffers: the iterate's, read by the update, and the
     line search's trial, of which only the cost is kept. *)
  let current = ref None and trial = ref None in
  let cost_of buf p =
    let flows = Flows.compute ~iterative_fallback:true ?into:!buf p traffic in
    buf := Some flows;
    (flows, Evaluate.total_cost model flows)
  in
  let ws = workspace topo in
  let apply p flows step =
    List.fold_left
      (fun acc dst ->
        Float.max acc
          (update_destination ~second_order ws model p flows ~eta:step ~dst))
      0.0 destinations
  in
  let eta_floor = eta *. 1e-12 in
  let history = ref [] in
  let cur_eta = ref eta in
  let finished = ref false in
  let iterations = ref 0 in
  let converged = ref false in
  (* The line search's restore point, overwritten every iteration. *)
  let saved = if adaptive then Some (Params.copy params) else None in
  while not !finished && !iterations < max_iters do
    incr iterations;
    let flows, cost = cost_of current params in
    ignore (Evaluate.link_costs ~into:ws.costs model flows);
    history := cost :: !history;
    match saved with
    | Some saved ->
      (* Backtracking line search: keep halving the step until the
         update strictly descends, restoring the parameters between
         attempts. The objective is convex, so a small enough step
         always descends unless we are at the optimum. *)
      Params.assign saved ~from_:params;
      let rec attempt step =
        let moved = apply params flows step in
        if moved < tol_move then begin
          converged := true;
          finished := true
        end
        else begin
          let _, new_cost = cost_of trial params in
          if new_cost < cost then
            (* Successful step: let the step size recover. *)
            cur_eta := Float.min eta (step *. 1.5)
          else if step <= eta_floor then begin
            converged := true;
            finished := true
          end
          else begin
            (* Restore and retry with half the step. *)
            Params.assign params ~from_:saved;
            attempt (step /. 2.0)
          end
        end
      in
      attempt !cur_eta
    | None ->
      (* Pure Gallager: fixed global step, no safeguards (ABL-ETA). *)
      let moved = apply params flows eta in
      if moved < tol_move then begin
        converged := true;
        finished := true
      end
  done;
  let flows = Flows.compute ~iterative_fallback:true params traffic in
  (params, flows, !iterations, List.rev !history, !converged)

let finish model (params, flows, iterations, history, converged) ~status ~admitted =
  {
    params;
    flows;
    total_cost = Evaluate.total_cost model flows;
    avg_delay = Evaluate.average_delay model flows admitted;
    iterations;
    history;
    converged;
    status;
    admitted;
  }

let solve ?(eta = 1.0e4) ?(adaptive = true) ?(second_order = false)
    ?(max_iters = 2000) ?(tol = 1e-9) ?(degrade = true) ?init model topo traffic =
  let run traffic =
    solve_admitted ~eta ~adaptive ~second_order ~max_iters ~tol ?init model topo
      traffic
  in
  if not degrade then finish model (run traffic) ~status:Feasible ~admitted:traffic
  else begin
    let packet_size = Evaluate.packet_size model in
    let report = Feasibility.report topo ~packet_size traffic in
    (* Shrink only on clear divergence: the run neither converged nor
       stayed within capacity. A feasible run that merely hit
       [max_iters] at utilisation <= 1 is not degraded. *)
    let diverged ((params, flows, _, _, converged) : Params.t * Flows.t * _ * _ * bool)
        =
      (not converged) && Flows.max_utilization params flows ~packet_size > 1.0
    in
    let rec attempt alpha reason tries =
      let admitted =
        if alpha >= 1.0 then traffic else Traffic.scale traffic alpha
      in
      let r = run admitted in
      if diverged r && tries > 0 && alpha > 1e-6 then
        attempt (alpha *. 0.8) `No_convergence (tries - 1)
      else begin
        let status =
          if alpha >= 1.0 then Feasible
          else
            Degraded
              {
                admitted_fraction = alpha;
                shed =
                  List.map
                    (fun (f : Traffic.flow) -> (f, 1.0 -. alpha))
                    (Traffic.flows traffic);
                per_destination = report.Feasibility.per_destination;
                reason;
              }
        in
        finish model r ~status ~admitted
      end
    in
    if Feasibility.feasible report then attempt 1.0 `Min_cut 6
    else attempt report.Feasibility.fraction `Min_cut 6
  end

let check_optimality model params flows traffic ~tolerance =
  let topo = Params.topology params in
  let n = Graph.node_count topo in
  let ok = ref true in
  let delta_buf = Array.make n infinity and scratch = Flows.scratch n in
  let costs = Evaluate.link_costs model flows in
  let check_destination dst =
    let delta =
      Evaluate.distances_over ~into:delta_buf ~scratch model params ~costs ~dst
    in
    for node = 0 to n - 1 do
      if node <> dst && flows.Flows.node_flows.(node).(dst) > 1e-9 then begin
        let through k =
          costs.(Params.edge_base params node + Params.slot params ~node ~via:k) +. delta.(k)
        in
        let succs = Params.successors params ~node ~dst in
        let values = List.map through succs in
        match values with
        | [] -> ok := false
        | v0 :: rest ->
          let lo = List.fold_left Float.min v0 rest in
          let hi = List.fold_left Float.max v0 rest in
          (* Successor marginals must agree (Eq. 11)... *)
          if hi -. lo > tolerance *. Float.max 1.0 lo then ok := false;
          (* ...and no outside neighbor may beat them (Eq. 12). *)
          List.iter
            (fun k ->
              if not (List.mem k succs) then
                let v = through k in
                if Float.is_finite v && v < lo -. (tolerance *. Float.max 1.0 lo)
                then ok := false)
            (Array.to_list (Params.neighbor_array params node))
      end
    done
  in
  List.iter check_destination (Traffic.destinations traffic);
  !ok
