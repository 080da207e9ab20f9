(* Tests for the discrete-event engine: ordering, cancellation, clock
   semantics and run-until behaviour, plus the heap properties the
   engine's flat timer heap must keep (ordering, FIFO ties, drain) and
   a model check against a sorted list. *)

module Engine = Mdr_eventsim.Engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-12))

let test_runs_in_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:3.0 (fun () -> log := 3 :: !log));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~delay:2.0 (fun () -> log := 2 :: !log));
  Engine.run e;
  check "order" true (List.rev !log = [ 1; 2; 3 ]);
  check_float "clock" 3.0 (Engine.now e)

let test_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  check "fifo ties" true (List.rev !log = [ 1; 2; 3; 4; 5 ])

let test_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         log := "outer" :: !log;
         ignore (Engine.schedule e ~delay:0.5 (fun () -> log := "inner" :: !log))));
  Engine.run e;
  check "nested" true (List.rev !log = [ "outer"; "inner" ]);
  check_float "clock" 1.5 (Engine.now e)

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let id = Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel e id;
  Engine.run e;
  check "not fired" false !fired;
  check_int "pending" 0 (Engine.pending e)

let test_cancel_twice_harmless () =
  let e = Engine.create () in
  let id = Engine.schedule e ~delay:1.0 ignore in
  Engine.cancel e id;
  Engine.cancel e id;
  check_int "pending" 0 (Engine.pending e);
  Engine.run e

let test_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~delay:(float_of_int i) (fun () -> incr count))
  done;
  Engine.run ~until:5.5 e;
  check_int "first five" 5 !count;
  check_float "clock at limit" 5.5 (Engine.now e);
  Engine.run e;
  check_int "rest" 10 !count

let test_run_until_with_cancelled_head () =
  (* A cancelled event beyond the limit must not leak execution past
     the limit. *)
  let e = Engine.create () in
  let fired = ref [] in
  let id = Engine.schedule e ~delay:1.0 (fun () -> fired := 1 :: !fired) in
  ignore (Engine.schedule e ~delay:2.0 (fun () -> fired := 2 :: !fired));
  Engine.cancel e id;
  Engine.run ~until:1.5 e;
  check "nothing past limit" true (!fired = []);
  Engine.run e;
  check "later event fires" true (!fired = [ 2 ])

let test_schedule_at () =
  let e = Engine.create () in
  let t = ref 0.0 in
  ignore (Engine.schedule_at e ~time:2.5 (fun () -> t := Engine.now e));
  Engine.run e;
  check_float "fired at" 2.5 !t

let test_schedule_past_raises () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:1.0 ignore);
  Engine.run e;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> ignore (Engine.schedule_at e ~time:0.5 ignore));
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      ignore (Engine.schedule e ~delay:(-1.0) ignore))

let test_step () =
  let e = Engine.create () in
  let count = ref 0 in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> incr count));
  ignore (Engine.schedule e ~delay:2.0 (fun () -> incr count));
  check "step 1" true (Engine.step e);
  check_int "one fired" 1 !count;
  check "step 2" true (Engine.step e);
  check "exhausted" false (Engine.step e)

let test_pending_counts () =
  let e = Engine.create () in
  let a = Engine.schedule e ~delay:1.0 ignore in
  ignore (Engine.schedule e ~delay:2.0 ignore);
  check_int "two pending" 2 (Engine.pending e);
  Engine.cancel e a;
  check_int "one pending" 1 (Engine.pending e);
  Engine.run e;
  check_int "none" 0 (Engine.pending e)

let test_many_events_stress () =
  let e = Engine.create () in
  let rng = Mdr_util.Rng.create ~seed:17 in
  let count = ref 0 in
  let last = ref 0.0 in
  for _ = 1 to 20_000 do
    let t = Mdr_util.Rng.uniform rng ~lo:0.0 ~hi:100.0 in
    ignore
      (Engine.schedule_at e ~time:t (fun () ->
           incr count;
           check "monotonic clock" true (Engine.now e >= !last);
           last := Engine.now e))
  done;
  Engine.run e;
  check_int "all fired" 20_000 !count

let test_cancel_fired_is_noop () =
  (* Cancelling an event that already fired must not touch the count
     of the events still queued. *)
  let e = Engine.create () in
  let id = Engine.schedule e ~delay:1.0 ignore in
  Engine.run e;
  Engine.cancel e id;
  ignore (Engine.schedule e ~delay:1.0 ignore);
  check_int "one queued" 1 (Engine.pending e);
  check "it fires" true (Engine.step e);
  check_int "none queued" 0 (Engine.pending e)

let test_schedule_nan_raises () =
  let e = Engine.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Engine.schedule_at: time is nan")
    (fun () -> ignore (Engine.schedule_at e ~time:Float.nan ignore))

(* --- Heap behaviour ---------------------------------------------------- *)

let test_heap_empty () =
  let e = Engine.create () in
  check_int "pending" 0 (Engine.pending e);
  check "step" false (Engine.step e);
  Engine.run e;
  check_float "clock unmoved" 0.0 (Engine.now e)

let test_heap_orders () =
  (* Interleaved inserts and removals keep the minimum at the head. *)
  let e = Engine.create () in
  let log = ref [] in
  let at t = ignore (Engine.schedule_at e ~time:t (fun () -> log := t :: !log)) in
  List.iter at [ 5.0; 3.0; 8.0; 1.0; 9.0; 2.0; 7.0 ];
  check_int "pending" 7 (Engine.pending e);
  ignore (Engine.step e);
  ignore (Engine.step e);
  check "two smallest first" true (List.rev !log = [ 1.0; 2.0 ]);
  at 2.5;
  Engine.run e;
  check "sorted" true (List.rev !log = [ 1.0; 2.0; 2.5; 3.0; 5.0; 7.0; 8.0; 9.0 ])

let test_heap_fifo_ties () =
  (* Equal times dequeue in scheduling order, also when an earlier
     event was scheduled between them. *)
  let e = Engine.create () in
  let log = ref [] in
  let at t name = ignore (Engine.schedule_at e ~time:t (fun () -> log := name :: !log)) in
  at 1.0 "a";
  at 1.0 "b";
  at 0.0 "z";
  at 1.0 "c";
  Engine.run e;
  check "order" true (List.rev !log = [ "z"; "a"; "b"; "c" ])

let test_heap_large () =
  let e = Engine.create () in
  let rng = Mdr_util.Rng.create ~seed:7 in
  let log = ref [] in
  for _ = 1 to 10_000 do
    let t = float_of_int (Mdr_util.Rng.int rng ~bound:1_000_000) in
    ignore (Engine.schedule_at e ~time:t (fun () -> log := t :: !log))
  done;
  Engine.run e;
  let fired = List.rev !log in
  check_int "all fired" 10_000 (List.length fired);
  check "sorted" true (List.sort Float.compare fired = fired)

let test_heap_drain () =
  (* Cancelling everything drains the queue. It then refills past its
     initial capacity, reusing the freed action slots. *)
  let e = Engine.create () in
  let log = ref [] in
  let at t = Engine.schedule_at e ~time:t (fun () -> log := t :: !log) in
  List.iter (Engine.cancel e) (List.init 100 (fun i -> at (float_of_int i)));
  check_int "drained" 0 (Engine.pending e);
  check "nothing to step" false (Engine.step e);
  let ids = List.init 300 (fun i -> at (float_of_int (300 - i))) in
  List.iteri (fun i id -> if i mod 2 = 0 then Engine.cancel e id) ids;
  check_int "half left" 150 (Engine.pending e);
  Engine.run e;
  check "the rest fire in time order" true
    (List.rev !log = List.init 150 (fun k -> float_of_int ((2 * k) + 1)))

(* --- Model check --------------------------------------------------------- *)

(* Random interleavings of the whole API against a model that keeps the
   queue as a list and fires its (time, scheduling order) minimum.
   Fired events may schedule a child, so scheduling from inside an
   action is covered too. *)
type op =
  | Schedule of float * float option  (* delay, child's delay *)
  | Schedule_at of float  (* offset from now *)
  | Cancel of int  (* index into everything scheduled so far *)
  | Step
  | Run_until of float  (* offset from now *)

let show_op = function
  | Schedule (d, c) ->
    Printf.sprintf "schedule %g%s" d
      (match c with Some c -> Printf.sprintf " (child %g)" c | None -> "")
  | Schedule_at d -> Printf.sprintf "schedule_at now+%g" d
  | Cancel i -> Printf.sprintf "cancel #%d" i
  | Step -> "step"
  | Run_until d -> Printf.sprintf "run ~until:now+%g" d

let arb_ops =
  let open QCheck.Gen in
  (* Half-second steps make equal times common. *)
  let delay = map (fun k -> float_of_int k /. 2.0) (int_bound 6) in
  let op =
    frequency
      [
        (4, map2 (fun d c -> Schedule (d, c)) delay (opt delay));
        (1, map (fun d -> Schedule_at d) delay);
        (2, map (fun i -> Cancel i) nat);
        (3, return Step);
        (1, map (fun d -> Run_until d) delay);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    (list_size (int_bound 200) op)

let engine_matches_model ops =
  let e = Engine.create () in
  let ids = Hashtbl.create 64 in
  let e_log = ref [] and e_next = ref 0 in
  (* [schedule] hands the engine the labelled action. *)
  let rec e_add child schedule =
    let label = !e_next in
    incr e_next;
    let fire () =
      e_log := label :: !e_log;
      Option.iter (fun d -> e_add None (Engine.schedule e ~delay:d)) child
    in
    Hashtbl.replace ids label (schedule fire)
  in
  let m_clock = ref 0.0 and m_queue = ref [] and m_log = ref [] and m_next = ref 0 in
  let m_schedule time child =
    m_queue := (time, !m_next, child) :: !m_queue;
    incr m_next
  in
  let m_head () =
    List.fold_left
      (fun best ((t, l, _) as ev) ->
        match best with
        | Some (bt, bl, _) when bt < t || (Float.equal bt t && bl < l) -> best
        | _ -> Some ev)
      None !m_queue
  in
  let m_fire (t, l, child) =
    m_queue := List.filter (fun (_, l', _) -> l' <> l) !m_queue;
    m_clock := t;
    m_log := l :: !m_log;
    match child with Some d -> m_schedule (t +. d) None | None -> ()
  in
  let apply = function
    | Schedule (d, child) ->
      e_add child (Engine.schedule e ~delay:d);
      m_schedule (!m_clock +. d) child
    | Schedule_at d ->
      e_add None (Engine.schedule_at e ~time:(Engine.now e +. d));
      m_schedule (!m_clock +. d) None
    | Cancel i ->
      if !e_next > 0 then begin
        let label = i mod !e_next in
        Engine.cancel e (Hashtbl.find ids label);
        m_queue := List.filter (fun (_, l, _) -> l <> label) !m_queue
      end
    | Step ->
      let fired = Engine.step e in
      let head = m_head () in
      Option.iter m_fire head;
      if fired <> Option.is_some head then failwith "step disagrees"
    | Run_until d ->
      let limit = Engine.now e +. d in
      Engine.run ~until:limit e;
      let rec go () =
        match m_head () with
        | Some ((t, _, _) as ev) when t <= limit ->
          m_fire ev;
          go ()
        | Some _ | None -> ()
      in
      go ();
      if !m_clock < limit then m_clock := limit
  in
  List.for_all
    (fun op ->
      apply op;
      Engine.pending e = List.length !m_queue
      && Float.equal (Engine.now e) !m_clock
      && !e_log = !m_log)
    ops

let prop_engine_matches_model =
  QCheck.Test.make ~name:"engine fires like a sorted-list model" ~count:500 arb_ops
    engine_matches_model

let suite =
  [
    Alcotest.test_case "runs in time order" `Quick test_runs_in_time_order;
    Alcotest.test_case "same-time events are FIFO" `Quick test_same_time_fifo;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "double cancel harmless" `Quick test_cancel_twice_harmless;
    Alcotest.test_case "run until" `Quick test_run_until;
    Alcotest.test_case "run until with cancelled head" `Quick test_run_until_with_cancelled_head;
    Alcotest.test_case "schedule at absolute time" `Quick test_schedule_at;
    Alcotest.test_case "scheduling in the past raises" `Quick test_schedule_past_raises;
    Alcotest.test_case "single stepping" `Quick test_step;
    Alcotest.test_case "pending counts" `Quick test_pending_counts;
    Alcotest.test_case "20k random events stay ordered" `Quick test_many_events_stress;
    Alcotest.test_case "cancelling a fired event is a no-op" `Quick test_cancel_fired_is_noop;
    Alcotest.test_case "scheduling at nan raises" `Quick test_schedule_nan_raises;
    Alcotest.test_case "heap: empty" `Quick test_heap_empty;
    Alcotest.test_case "heap: orders elements" `Quick test_heap_orders;
    Alcotest.test_case "heap: FIFO on ties" `Quick test_heap_fifo_ties;
    Alcotest.test_case "heap: 10k random elements" `Quick test_heap_large;
    Alcotest.test_case "heap: drain" `Quick test_heap_drain;
    QCheck_alcotest.to_alcotest prop_engine_matches_model;
  ]
