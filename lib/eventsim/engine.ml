(* The queue is a binary min-heap kept as parallel arrays: event times
   unboxed in a [Float.Array], ids and action slots alongside. It is
   keyed on (time, id). Ids are handed out in scheduling order, so the
   key is a strict total order: pops come out in the one order any
   correct heap on that key gives, with same-time events FIFO. That
   order is the simulators' determinism contract.

   Actions sit in their own array at a slot that does not move while
   the entry sifts, so sifting writes only unboxed floats and ints and
   never runs the write barrier. [slots] is a permutation of the action
   slots: positions below [size] hold the queued entries' slots in heap
   order, the positions from [size] on hold the free ones.

   Cancellation removes the entry from the heap outright, so [step] and
   [run] never test for tombstones and [pending] is the heap size. *)

type event_id = int

type t = {
  mutable times : Float.Array.t;
  mutable ids : event_id array;
  mutable slots : int array;  (* heap position -> slot in [actions] *)
  mutable actions : (unit -> unit) array;  (* by slot *)
  mutable size : int;
  mutable clock : float;
  mutable next_id : int;
}

(* Placeholder for free slots, so fired actions are not kept alive. *)
let nop () = ()

let create () =
  let cap = 64 in
  {
    times = Float.Array.make cap 0.0;
    ids = Array.make cap 0;
    slots = Array.init cap Fun.id;
    actions = Array.make cap nop;
    size = 0;
    clock = 0.0;
    next_id = 0;
  }

let now t = t.clock

let pending t = t.size

(* Only called when full, so the new slots are the free ones. *)
let grow t =
  let old = t.size in
  let cap = 2 * old in
  let times = Float.Array.make cap 0.0 in
  Float.Array.blit t.times 0 times 0 old;
  let ids = Array.make cap 0 in
  Array.blit t.ids 0 ids 0 old;
  let actions = Array.make cap nop in
  Array.blit t.actions 0 actions 0 old;
  t.times <- times;
  t.ids <- ids;
  t.slots <- Array.init cap (fun i -> if i < old then t.slots.(i) else i);
  t.actions <- actions

(* Does the entry at position [i] order before (time, id)? *)
let[@inline] before t i time id =
  let ti = Float.Array.get t.times i in
  ti < time || (ti = time && t.ids.(i) < id)

let[@inline] place t i time id slot =
  Float.Array.set t.times i time;
  t.ids.(i) <- id;
  t.slots.(i) <- slot

(* Move the entry at position [j] to position [i]. *)
let[@inline] move t ~from:j i = place t i (Float.Array.get t.times j) t.ids.(j) t.slots.(j)

(* Inlined into both entry points so the time stays unboxed. *)
let[@inline] push t time action =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: time is nan";
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  if t.size = Array.length t.ids then grow t;
  let id = t.next_id in
  t.next_id <- id + 1;
  let slot = t.slots.(t.size) in
  t.actions.(slot) <- action;
  (* Sift the hole at the end up to the new entry's place. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  while !i > 0 && not (before t ((!i - 1) / 2) time id) do
    let p = (!i - 1) / 2 in
    move t ~from:p !i;
    i := p
  done;
  place t !i time id slot;
  id

let schedule_at t ~time action = push t time action

let schedule t ~delay action =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  push t (t.clock +. delay) action

(* Remove the entry at position [i]: the last entry fills the hole and
   sifts up or down to its place, and the freed slot takes the last
   position. *)
let remove_at t i =
  let slot = t.slots.(i) in
  t.actions.(slot) <- nop;
  let last = t.size - 1 in
  t.size <- last;
  if i < last then begin
    let time = Float.Array.get t.times last
    and id = t.ids.(last)
    and s = t.slots.(last) in
    let i = ref i in
    while !i > 0 && not (before t ((!i - 1) / 2) time id) do
      let p = (!i - 1) / 2 in
      move t ~from:p !i;
      i := p
    done;
    let sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= last then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if r < last && before t r (Float.Array.get t.times l) t.ids.(l) then r else l
        in
        if before t c time id then begin
          move t ~from:c !i;
          i := c
        end
        else sifting := false
      end
    done;
    place t !i time id s;
    t.slots.(last) <- slot
  end

(* A linear scan: cancels are rare next to steps, and finding the entry
   is what makes cancelling a fired or cancelled event a no-op. *)
let cancel t id =
  let rec find i =
    if i < t.size then if t.ids.(i) = id then remove_at t i else find (i + 1)
  in
  find 0

let step t =
  if t.size = 0 then false
  else begin
    let action = t.actions.(t.slots.(0)) in
    t.clock <- Float.Array.get t.times 0;
    remove_at t 0;
    action ();
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
    while t.size > 0 && not (Float.Array.get t.times 0 > limit) do
      ignore (step t)
    done;
    if t.clock < limit then t.clock <- limit
