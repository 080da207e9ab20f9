type flow = { src : int; dst : int; rate : float }

(* [dsts] caches the destinations: a matrix never changes once built,
   and every flow computation asks for them. *)
type t = { n : int; r : float array array; dsts : int list }

let make n r =
  let has = Array.make n false in
  for src = 0 to n - 1 do
    let row = r.(src) in
    for dst = 0 to n - 1 do
      if row.(dst) > 0.0 then has.(dst) <- true
    done
  done;
  let dsts = ref [] in
  for dst = n - 1 downto 0 do
    if has.(dst) then dsts := dst :: !dsts
  done;
  { n; r; dsts = !dsts }

let empty ~n = make n (Array.make_matrix n n 0.0)

let add n r { src; dst; rate } =
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Traffic: node out of range";
  if src = dst then invalid_arg "Traffic: self-flow";
  if rate < 0.0 then invalid_arg "Traffic: negative rate";
  r.(src).(dst) <- r.(src).(dst) +. rate

let of_flows ~n flows =
  let r = Array.make_matrix n n 0.0 in
  List.iter (add n r) flows;
  make n r

let of_pairs_bits ~n ~packet_size ~rate_bits pairs =
  if packet_size <= 0.0 then invalid_arg "Traffic.of_pairs_bits: packet_size <= 0";
  let flows =
    List.mapi
      (fun i (src, dst) -> { src; dst; rate = rate_bits i /. packet_size })
      pairs
  in
  of_flows ~n flows

let node_count t = t.n

let rate t ~src ~dst = t.r.(src).(dst)

let matrix t = t.r

let total_rate t =
  Array.fold_left (fun acc row -> Array.fold_left ( +. ) acc row) 0.0 t.r

let flows t =
  let acc = ref [] in
  for src = t.n - 1 downto 0 do
    for dst = t.n - 1 downto 0 do
      if t.r.(src).(dst) > 0.0 then
        acc := { src; dst; rate = t.r.(src).(dst) } :: !acc
    done
  done;
  !acc

let destinations t = t.dsts

let scale t k =
  if k < 0.0 then invalid_arg "Traffic.scale: negative factor";
  make t.n (Array.map (Array.map (fun x -> x *. k)) t.r)
