module Sorted_tbl = Mdr_util.Sorted_tbl

type entry = { head : int; tail : int; cost : float }

type csr = { row : int array; dst : int array; cost : float array }

(* A cached view over nodes [0, n). [dst] and [cost] may be longer
   than [row.(n)]: the cells past it are spare capacity for merges. *)
type view = { n : int; csr : csr }

type t = {
  links : (int * int, float) Hashtbl.t;
  adjacency : (int, (int, float) Hashtbl.t) Hashtbl.t;
  mutable version : int;
  mutable fwd : view option;
  mutable bwd : view option;  (* transpose view *)
  mutable views_owned : bool;
      (* false after [copy]: the view arrays are shared with another
         table, so any in-place write must clone them first *)
  mutable log_head : int array;
  mutable log_tail : int array;
  mutable log_len : int;
      (* names of the edges mutated since the views were last current,
         possibly repeated; merged into them at the next view read *)
}

let create () =
  {
    links = Hashtbl.create 32;
    adjacency = Hashtbl.create 16;
    version = 0;
    fwd = None;
    bwd = None;
    views_owned = true;
    log_head = [||];
    log_tail = [||];
    log_len = 0;
  }

(* Every *actual* mutation bumps [version]; no-op writes (same cost,
   absent removal, empty clear) leave it alone so readers keying off
   the version — the per-neighbor Dijkstra skip in Router — stay valid
   as long as the contents truly haven't moved. *)
let touch t = t.version <- t.version + 1

(* The copy keeps the original's version counter (same contents, same
   version: readers' seen-versions stay valid across copies) and shares
   its views and pending log, so the copy's first shortest-path run
   skips the rebuild. *)
let copy t =
  let fresh = create () in
  Sorted_tbl.iter (fun k v -> Hashtbl.replace fresh.links k v) t.links;
  Sorted_tbl.iter
    (fun h out -> Hashtbl.replace fresh.adjacency h (Hashtbl.copy out))
    t.adjacency;
  fresh.version <- t.version;
  fresh.fwd <- t.fwd;
  fresh.bwd <- t.bwd;
  fresh.log_head <- Array.sub t.log_head 0 t.log_len;
  fresh.log_tail <- Array.sub t.log_tail 0 t.log_len;
  fresh.log_len <- t.log_len;
  (* Both tables now point at the same view arrays; neither may write
     them in place without cloning them first. *)
  fresh.views_owned <- false;
  t.views_owned <- false;
  fresh

let own_views t =
  if not t.views_owned then begin
    let clone =
      Option.map (fun v ->
          {
            v with
            csr =
              {
                row = Array.copy v.csr.row;
                dst = Array.copy v.csr.dst;
                cost = Array.copy v.csr.cost;
              };
          })
    in
    t.fwd <- clone t.fwd;
    t.bwd <- clone t.bwd;
    t.views_owned <- true
  end

let has_views t = Option.is_some t.fwd || Option.is_some t.bwd

(* Record a structural edit (or a cost change behind one) for the next
   merge. Once the pending edits outnumber the links, one rebuild costs
   less than merging them, so the views are dropped instead. *)
let log_edge t ~head ~tail =
  if has_views t then begin
    if t.log_len = Array.length t.log_head then begin
      let grow a =
        let b = Array.make (max 8 (2 * t.log_len)) 0 in
        Array.blit a 0 b 0 t.log_len;
        b
      in
      t.log_head <- grow t.log_head;
      t.log_tail <- grow t.log_tail
    end;
    t.log_head.(t.log_len) <- head;
    t.log_tail.(t.log_len) <- tail;
    t.log_len <- t.log_len + 1;
    if t.log_len > Hashtbl.length t.links then begin
      t.fwd <- None;
      t.bwd <- None;
      t.log_len <- 0
    end
  end

let clear t =
  if Hashtbl.length t.links > 0 then begin
    Hashtbl.reset t.links;
    Hashtbl.reset t.adjacency;
    (* The views stay, emptied over the same node range, so refilling
       the table merges into them rather than rebuilding. *)
    let empty v =
      if t.views_owned then begin
        Array.fill v.csr.row 0 (v.n + 1) 0;
        v
      end
      else { n = v.n; csr = { row = Array.make (v.n + 1) 0; dst = [||]; cost = [||] } }
    in
    t.fwd <- Option.map empty t.fwd;
    t.bwd <- Option.map empty t.bwd;
    t.views_owned <- true;
    t.log_len <- 0;
    touch t
  end

(* In-place patch for a pure cost change: the edge set is unchanged,
   so only one cost cell moves. Finding it is a binary search over the
   (sorted) destination slice of [key]'s row; an edge absent from the
   view (an endpoint outside [0, n)) makes the search miss harmlessly. *)
let patch_cost view ~key ~other ~cost =
  if key >= 0 && key < view.n then begin
    let csr = view.csr in
    let lo = ref csr.row.(key) and hi = ref (csr.row.(key + 1) - 1) in
    let idx = ref (-1) in
    while !idx < 0 && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let d = csr.dst.(mid) in
      if d = other then idx := mid
      else if d < other then lo := mid + 1
      else hi := mid - 1
    done;
    if !idx >= 0 then csr.cost.(!idx) <- cost
  end

let set t ~head ~tail ~cost =
  if not (Float.is_finite cost) || cost < 0.0 then
    invalid_arg "Topo_table.set: cost must be finite and non-negative";
  if head = tail then invalid_arg "Topo_table.set: self-loop";
  match Hashtbl.find_opt t.links (head, tail) with
  | Some old when Float.equal old cost -> ()
  | Some _ ->
    Hashtbl.replace t.links (head, tail) cost;
    (match Hashtbl.find_opt t.adjacency head with
    | Some out -> Hashtbl.replace out tail cost
    | None -> assert false);
    touch t;
    (* Same edge set, one cost moved: with nothing pending, patch the
       views where they stand; otherwise the merge picks it up. *)
    if t.log_len > 0 then log_edge t ~head ~tail
    else if has_views t then begin
      own_views t;
      Option.iter (fun v -> patch_cost v ~key:head ~other:tail ~cost) t.fwd;
      Option.iter (fun v -> patch_cost v ~key:tail ~other:head ~cost) t.bwd
    end
  | None ->
    Hashtbl.replace t.links (head, tail) cost;
    let out =
      match Hashtbl.find_opt t.adjacency head with
      | Some out -> out
      | None ->
        let out = Hashtbl.create 4 in
        Hashtbl.replace t.adjacency head out;
        out
    in
    Hashtbl.replace out tail cost;
    touch t;
    log_edge t ~head ~tail

let remove t ~head ~tail =
  if Hashtbl.mem t.links (head, tail) then begin
    Hashtbl.remove t.links (head, tail);
    (match Hashtbl.find_opt t.adjacency head with
    | None -> ()
    | Some out ->
      Hashtbl.remove out tail;
      if Hashtbl.length out = 0 then Hashtbl.remove t.adjacency head);
    touch t;
    log_edge t ~head ~tail
  end

let cost t ~head ~tail = Hashtbl.find_opt t.links (head, tail)

let apply_entry t { head; tail; cost } =
  if Float.is_finite cost then set t ~head ~tail ~cost else remove t ~head ~tail

(* Monomorphic (head, tail) order: [entries] feeds both CSR builders,
   so this sort is the dominant cost of a view rebuild at scale. *)
let link_key_compare (h1, t1) (h2, t2) =
  if h1 = h2 then Int.compare t1 t2 else Int.compare (h1 : int) h2

let entries t =
  List.map
    (fun ((head, tail), cost) -> { head; tail; cost })
    (Sorted_tbl.bindings_by link_key_compare t.links)

let out_links t ~head =
  match Hashtbl.find_opt t.adjacency head with
  | None -> []
  | Some out ->
    Sorted_tbl.fold (fun tail cost acc -> (tail, cost) :: acc) out [] |> List.rev

let nodes t =
  let seen = Hashtbl.create 16 in
  Sorted_tbl.iter
    (fun (head, tail) _ ->
      Hashtbl.replace seen head ();
      Hashtbl.replace seen tail ())
    t.links;
  Sorted_tbl.keys seen

let size t = Hashtbl.length t.links

let version t = t.version

(* In-place heapsort of the pairs (a.(i), b.(i)), i < len, by (a, b). *)
let sort_pairs (a : int array) (b : int array) len =
  let less i j = a.(i) < a.(j) || (a.(i) = a.(j) && b.(i) < b.(j)) in
  let swap i j =
    let x = a.(i) and y = b.(i) in
    a.(i) <- a.(j);
    b.(i) <- b.(j);
    a.(j) <- x;
    b.(j) <- y
  in
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && less l (l + 1) then l + 1 else l in
      if less i c then begin
        swap i c;
        sift c len
      end
    end
  in
  for i = (len / 2) - 1 downto 0 do
    sift i len
  done;
  for last = len - 1 downto 1 do
    swap 0 last;
    sift 0 last
  done

(* Drop repeats from sorted pairs; returns the new length. *)
let dedupe (a : int array) (b : int array) len =
  if len = 0 then 0
  else begin
    let w = ref 1 in
    for i = 1 to len - 1 do
      if a.(i) <> a.(!w - 1) || b.(i) <> b.(!w - 1) then begin
        a.(!w) <- a.(i);
        b.(!w) <- b.(i);
        incr w
      end
    done;
    !w
  end

(* The table's current cost of the view edge [key -> other] (of
   [other -> key] in the transpose view). The log holds only edge
   names, so the last write to an edge wins by construction. *)
let lookup t ~transpose ~key ~other =
  let head = if transpose then other else key
  and tail = if transpose then key else other in
  match Hashtbl.find_opt t.adjacency head with
  | None -> None
  | Some out -> Hashtbl.find_opt out tail

(* Merge sorted, deduplicated edge names [(keys.(c), others.(c))],
   c < len, into an owned view in place, in two linear sweeps over
   the rows they span and the rows after them:

   1. forward, compacting leftwards: drop edges that are gone, rewrite
      the costs of edges that stay, and count the edges to insert;
   2. backward, expanding rightwards into spare capacity (grown if
      short): merge the inserts into their rows.

   A forward sweep only ever writes at or left of where it reads and a
   backward one at or right of it, so neither needs a second buffer. *)
let merge_view t (v : view) ~transpose keys others len =
  let n = v.n in
  let row = v.csr.row in
  let in_range x = x >= 0 && x < n in
  let relevant c = in_range keys.(c) && ((not transpose) || in_range others.(c)) in
  let present c =
    Option.is_some (lookup t ~transpose ~key:keys.(c) ~other:others.(c))
  in
  let c = ref 0 in
  let skip () =
    while !c < len && not (relevant !c) do
      incr c
    done
  in
  skip ();
  if !c = len then v
  else begin
    let dst = v.csr.dst and cost = v.csr.cost in
    let r = ref keys.(!c) in
    let w = ref row.(!r) and s = ref row.(!r) in
    let inserts = ref 0 in
    let count_insert () =
      if present !c then incr inserts;
      incr c;
      skip ()
    in
    while !r < n && (!c < len || !w <> !s) do
      let rr = !r in
      let e = row.(rr + 1) in
      row.(rr) <- !w;
      for i = !s to e - 1 do
        let o = dst.(i) in
        while !c < len && keys.(!c) = rr && others.(!c) < o do
          count_insert ()
        done;
        if !c < len && keys.(!c) = rr && others.(!c) = o then begin
          (match lookup t ~transpose ~key:rr ~other:o with
          | Some x ->
            dst.(!w) <- o;
            cost.(!w) <- x;
            incr w
          | None -> ());
          incr c;
          skip ()
        end
        else begin
          dst.(!w) <- o;
          cost.(!w) <- cost.(i);
          incr w
        end
      done;
      while !c < len && keys.(!c) = rr do
        count_insert ()
      done;
      s := e;
      incr r
    done;
    if !r = n then row.(n) <- !w;
    if !inserts = 0 then v
    else begin
      let total = row.(n) + !inserts in
      let v =
        if total <= Array.length dst then v
        else begin
          let cap = max total (Array.length dst * 3 / 2) in
          let dst' = Array.make cap 0 and cost' = Array.make cap 0.0 in
          Array.blit dst 0 dst' 0 row.(n);
          Array.blit cost 0 cost' 0 row.(n);
          { v with csr = { row; dst = dst'; cost = cost' } }
        end
      in
      let dst = v.csr.dst and cost = v.csr.cost in
      let wp = ref total and a_end = ref row.(n) in
      row.(n) <- total;
      let c = ref (len - 1) and r = ref (n - 1) and left = ref !inserts in
      while !left > 0 do
        let rr = !r in
        let s = row.(rr) in
        let i = ref (!a_end - 1) in
        let row_done = ref false in
        while not !row_done do
          while
            !c >= 0
            && (keys.(!c) > rr
               || (keys.(!c) = rr && not (relevant !c && present !c)))
          do
            decr c
          done;
          let has = !c >= 0 && keys.(!c) = rr in
          if has && !i >= s && others.(!c) = dst.(!i) then
            (* Kept edge, already rewritten by the forward sweep. *)
            decr c
          else if has && (!i < s || others.(!c) > dst.(!i)) then begin
            decr wp;
            dst.(!wp) <- others.(!c);
            (match lookup t ~transpose ~key:rr ~other:others.(!c) with
            | Some x -> cost.(!wp) <- x
            | None -> assert false);
            decr c;
            decr left
          end
          else if !i >= s then begin
            decr wp;
            dst.(!wp) <- dst.(!i);
            cost.(!wp) <- cost.(!i);
            decr i
          end
          else row_done := true
        done;
        row.(rr) <- !wp;
        a_end := s;
        decr r
      done;
      v
    end
  end

(* Bring the views up to date with the log: sort the logged edge names
   once per view order, merge, and empty the log. *)
let sync t =
  if t.log_len > 0 then begin
    own_views t;
    let h = t.log_head and tl = t.log_tail in
    sort_pairs h tl t.log_len;
    let len = dedupe h tl t.log_len in
    t.fwd <- Option.map (fun v -> merge_view t v ~transpose:false h tl len) t.fwd;
    sort_pairs tl h len;
    t.bwd <- Option.map (fun v -> merge_view t v ~transpose:true tl h len) t.bwd;
    t.log_len <- 0
  end

(* A first read, or a read with a new [n], builds the view by merging
   every link into an empty one. *)
let build t ~n ~transpose =
  let es = Array.of_list (entries t) in
  let heads = Array.map (fun e -> e.head) es and tails = Array.map (fun e -> e.tail) es in
  let len = Array.length es in
  (* [entries] come sorted by (head, tail); the transpose needs (tail, head). *)
  if transpose then sort_pairs tails heads len;
  let empty = { n; csr = { row = Array.make (n + 1) 0; dst = [||]; cost = [||] } } in
  if transpose then merge_view t empty ~transpose tails heads len
  else merge_view t empty ~transpose heads tails len

let view t ~n ~transpose =
  sync t;
  match if transpose then t.bwd else t.fwd with
  | Some v when v.n = n -> v.csr
  | Some _ | None ->
    let v = build t ~n ~transpose in
    if transpose then t.bwd <- Some v else t.fwd <- Some v;
    v.csr

let csr t ~n = view t ~n ~transpose:false
let csr_in t ~n = view t ~n ~transpose:true

let diff ~old_table ~new_table =
  let changes = ref [] in
  Sorted_tbl.iter
    (fun (head, tail) cost ->
      match Hashtbl.find_opt old_table.links (head, tail) with
      | Some old_cost when Float.equal old_cost cost -> ()
      | Some _ | None -> changes := { head; tail; cost } :: !changes)
    new_table.links;
  Sorted_tbl.iter
    (fun (head, tail) _ ->
      if not (Hashtbl.mem new_table.links (head, tail)) then
        changes := { head; tail; cost = infinity } :: !changes)
    old_table.links;
  List.sort
    (fun a b ->
      match Int.compare a.head b.head with
      | 0 -> Int.compare a.tail b.tail
      | c -> c)
    !changes

let equal a b =
  Hashtbl.length a.links = Hashtbl.length b.links
  && Sorted_tbl.fold
       (fun key cost acc ->
         acc
         &&
         match Hashtbl.find_opt b.links key with
         | Some c -> Float.equal c cost
         | None -> false)
       a.links true
