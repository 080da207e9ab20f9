(* In-memory spans recorded around the benchmark's calls into each
   layer. Recording is off unless [on] is set, and then costs
   one clock read at each end of a span; nothing is written until
   [write_json]. *)

type t = { id : int; name : string; start : float; stop : float; parent : int }

let now = Unix.gettimeofday
let on = ref false
let recorded : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let with_ name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let start = now () in
    let close () =
      let stop = now () in
      open_ids := List.tl !open_ids;
      recorded := { id; name; start; stop; parent } :: !recorded
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let all () = List.rev !recorded

(* Self time of a span: its duration minus the part of it that its
   direct children cover. Children of one span never overlap (one
   domain, properly nested calls), so the sum is exact. *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (prev +. (s.stop -. s.start)))
    spans;
  List.map
    (fun s ->
      let covered = Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      (s, s.stop -. s.start -. covered))
    spans

(* (name, calls, total self seconds), sorted by name. *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ((s : t), self) ->
      let calls, total = Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (calls + 1, total +. self))
    (self_times spans);
  Hashtbl.fold (fun name (calls, total) acc -> (name, calls, total) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let write_json path spans =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc "%s{\"id\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"parent\":%d}"
        (if i = 0 then "" else ",\n")
        s.id s.name s.start s.stop s.parent)
    spans;
  output_string oc "\n]\n";
  close_out oc
