module Graph = Mdr_topology.Graph

type t = {
  topo : Graph.t;
  edges : Graph.csr;  (* slot s of node i is edge edges.row.(i) + s *)
  nbrs : int array array;
  phi : float array array array;  (* phi.(i).(dst).(slot) *)
}

let tolerance = 1e-9

let create topo =
  let edges = Graph.out_csr topo in
  let n = Graph.node_count topo in
  let nbrs =
    Array.init n (fun i ->
        Array.init (edges.row.(i + 1) - edges.row.(i)) (fun s ->
            edges.links.(edges.row.(i) + s).Graph.dst))
  in
  let phi =
    Array.init n (fun i -> Array.init n (fun _ -> Array.make (Array.length nbrs.(i)) 0.0))
  in
  { topo; edges; nbrs; phi }

let copy t =
  { t with phi = Array.map (Array.map Array.copy) t.phi }

let same_edges (a : Graph.csr) (b : Graph.csr) =
  a == b
  || Array.length a.row = Array.length b.row
     && Array.length a.links = Array.length b.links
     && Array.for_all2 Int.equal a.row b.row
     && Array.for_all2
          (fun (x : Graph.link) (y : Graph.link) -> x.src = y.src && x.dst = y.dst)
          a.links b.links

let find_edge (edges : Graph.csr) ~src ~dst =
  let rec scan e =
    if e >= edges.row.(src + 1) then -1
    else if edges.links.(e).dst = dst then e
    else scan (e + 1)
  in
  scan edges.row.(src)

let assign t ~from_ =
  if not (same_edges t.edges from_.edges) then
    invalid_arg "Params.assign: topology mismatch";
  Array.iteri
    (fun i rows ->
      Array.iteri
        (fun j row -> Array.blit from_.phi.(i).(j) 0 row 0 (Array.length row))
        rows)
    t.phi

let topology t = t.topo

let edges t = t.edges

let edge_base t node = t.edges.row.(node)

let neighbor_array t node = t.nbrs.(node)

let slot t ~node ~via =
  let nbrs = t.nbrs.(node) in
  let rec scan s =
    if s >= Array.length nbrs then -1 else if nbrs.(s) = via then s else scan (s + 1)
  in
  scan 0

let row t ~node ~dst = t.phi.(node).(dst)

let fraction t ~node ~dst ~via =
  let s = slot t ~node ~via in
  if s < 0 then 0.0 else t.phi.(node).(dst).(s)

let fractions t ~node ~dst =
  let row = t.phi.(node).(dst) in
  let acc = ref [] in
  for slot = Array.length row - 1 downto 0 do
    if row.(slot) > 0.0 then acc := (t.nbrs.(node).(slot), row.(slot)) :: !acc
  done;
  !acc

(* Reject a distribution whose fractions do not sum to one; renormalize
   away accumulated floating error otherwise. *)
let commit row total =
  if Float.abs (total -. 1.0) > 1e-6 then begin
    Array.fill row 0 (Array.length row) 0.0;
    invalid_arg
      (Printf.sprintf "Params.set_fractions: fractions sum to %.9f, not 1" total)
  end;
  if not (Float.equal total 1.0) then
    Array.iteri (fun slot v -> row.(slot) <- v /. total) row

let set_fractions t ~node ~dst entries =
  if node = dst && entries <> [] then
    invalid_arg "Params.set_fractions: destination routes to itself";
  let row = t.phi.(node).(dst) in
  Array.fill row 0 (Array.length row) 0.0;
  match entries with
  | [] -> ()
  | _ ->
    let total = ref 0.0 in
    let apply (via, frac) =
      if frac < -.tolerance then invalid_arg "Params.set_fractions: negative fraction";
      let slot = slot t ~node ~via in
      if slot < 0 then
        invalid_arg
          (Printf.sprintf "Params.set_fractions: %s is not a neighbor of %s"
             (Graph.name t.topo via) (Graph.name t.topo node));
      let frac = Float.max 0.0 frac in
      row.(slot) <- row.(slot) +. frac;
      total := !total +. frac
    in
    List.iter apply entries;
    commit row !total

let set_slots t ~node ~dst ~first values =
  let row = t.phi.(node).(dst) in
  let len = Array.length row in
  if node = dst then invalid_arg "Params.set_fractions: destination routes to itself";
  if first < 0 || first >= len || Array.length values < len then
    invalid_arg "Params.set_slots: slot out of range";
  for s = 0 to len - 1 do
    if values.(s) < -.tolerance then invalid_arg "Params.set_fractions: negative fraction"
  done;
  (* Sum in the order [set_fractions] would see the entries: [first],
     then the rest by slot; the zeros of absent entries add nothing. *)
  let frac = Float.max 0.0 values.(first) in
  row.(first) <- frac;
  let total = ref frac in
  for s = 0 to len - 1 do
    if s <> first then begin
      let frac = Float.max 0.0 values.(s) in
      row.(s) <- frac;
      total := !total +. frac
    end
  done;
  commit row !total

let set_single t ~node ~dst ~via = set_fractions t ~node ~dst [ (via, 1.0) ]

let clear t ~node ~dst =
  let row = t.phi.(node).(dst) in
  Array.fill row 0 (Array.length row) 0.0

let successors t ~node ~dst = List.map fst (fractions t ~node ~dst)

let is_routed t ~node ~dst =
  Array.exists (fun v -> v > 0.0) t.phi.(node).(dst)

let validate t =
  let n = Graph.node_count t.topo in
  let problem = ref None in
  for node = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if !problem = None then begin
        let row = t.phi.(node).(dst) in
        let total = Array.fold_left ( +. ) 0.0 row in
        if Array.exists (fun v -> v < 0.0) row then
          problem :=
            Some (Printf.sprintf "negative fraction at (%d, %d)" node dst)
        else if node = dst && total > tolerance then
          problem := Some (Printf.sprintf "destination %d routes to itself" dst)
        else if total > tolerance && Float.abs (total -. 1.0) > 1e-6 then
          problem :=
            Some
              (Printf.sprintf "fractions at (%d, %d) sum to %.9f" node dst total)
      end
    done
  done;
  match !problem with None -> Ok () | Some msg -> Error msg

let successor_graph_is_acyclic t ~dst =
  let n = Graph.node_count t.topo in
  (* Colors: 0 unvisited, 1 on stack, 2 done. *)
  let color = Array.make n 0 in
  let rec visit node =
    if color.(node) = 1 then false
    else if color.(node) = 2 then true
    else begin
      color.(node) <- 1;
      let ok =
        List.for_all
          (fun succ -> succ = dst || visit succ)
          (successors t ~node ~dst)
      in
      color.(node) <- 2;
      ok
    end
  in
  List.for_all (fun node -> node = dst || visit node) (Graph.nodes t.topo)
