(* Chrome trace_event export of a span store (docs/OBSERVABILITY.md).

   Renders everything a {!Trace.t} retains — mediated-call spans and
   lifecycle-transaction spans — as one Chrome/Perfetto-loadable JSON
   document ([chrome://tracing], https://ui.perfetto.dev).  The two
   kinds live on separate tracks (thread lanes) of one process:

     tid 1  mediated calls      one "X" slice per call span
     tid 2  lifecycle txns      one "X" slice per transaction, with
                                its stage spans as nested child slices

   Nesting on tid 2 is by interval containment, which is exactly how
   the trace_event format expresses a hierarchy of synchronous "X"
   events on one thread: a stage slice starts at the transaction's
   start plus the stage offset and is covered by the parent's
   duration, so viewers draw it underneath the transaction slice.

   Timestamps are microseconds relative to the earliest span in the
   store (the format wants µs; normalizing keeps the numbers small and
   the export reproducible for same-shaped stores).  Events are sorted
   by timestamp, so per-track timestamps are monotone — some viewers
   want that, and tests can assert it. *)

module Json = Telemetry.Json

let call_track = 1.
let txn_track = 2.

(* µs relative to [base], rounded to whole microseconds so the export
   round-trips exactly through decimal JSON. *)
let us ~base t = Float.round ((t -. base) *. 1e6)

let dur_us d = Float.max 0. (Float.round (d *. 1e6))

let event ~name ~cat ~tid ~ts ~dur args : Json.t =
  Obj
    [ ("name", Str name); ("cat", Str cat); ("ph", Str "X");
      ("ts", Num ts); ("dur", Num dur); ("pid", Num 1.); ("tid", Num tid);
      ("args", Obj args) ]

let metadata ~name ~tid args : Json.t =
  Obj
    [ ("name", Str name); ("ph", Str "M"); ("pid", Num 1.); ("tid", Num tid);
      ("args", Obj args) ]

let call_event ~base (s : Trace.span) =
  let args =
    [ ("seq", Json.Num (float_of_int s.seq)); ("app", Json.Str s.app);
      ("decision", Json.Str (Trace.decision_class_to_string s.decision));
      ("deputy", Json.Num (float_of_int s.deputy));
      ("queue_wait_us", Json.Num (dur_us s.queue_wait));
      ("check_us", Json.Num (dur_us s.check_dur));
      ("exec_us", Json.Num (dur_us s.exec_dur)) ]
    @ match s.explain with None -> [] | Some e -> [ ("explain", Json.Str e) ]
  in
  event ~name:s.call ~cat:"call" ~tid:call_track ~ts:(us ~base s.start)
    ~dur:(dur_us s.total) args

let txn_events ~base (t : Trace.txn_span) =
  let verdict_args =
    match t.verdict with
    | Trace.Txn_committed { delta; republished } ->
      [ ("verdict", Json.Str "committed"); ("delta", Json.Bool delta);
        ("republished", Json.Arr (List.map (fun a -> Json.Str a) republished))
      ]
    | Trace.Txn_rolled_back { stage; reason } ->
      [ ("verdict", Json.Str "rolled-back"); ("stage", Json.Str stage);
        ("reason", Json.Str reason) ]
  in
  let parent =
    event
      ~name:(t.kind ^ " " ^ t.txn_app)
      ~cat:"txn" ~tid:txn_track ~ts:(us ~base t.txn_start)
      ~dur:(dur_us t.txn_total)
      ([ ("id", Json.Num (float_of_int t.id));
         ("epoch_before", Json.Num (float_of_int t.epoch_before));
         ("epoch_after", Json.Num (float_of_int t.epoch_after)) ]
      @ verdict_args)
  in
  let children =
    List.map
      (fun (st : Trace.stage_span) ->
        event ~name:st.stage ~cat:"stage" ~tid:txn_track
          ~ts:(us ~base (t.txn_start +. st.offset))
          ~dur:(dur_us st.dur)
          [ ("txn", Json.Num (float_of_int t.id)) ])
      t.stages
  in
  parent :: children

let ts_of = function
  | Json.Obj fields -> (
    match List.assoc_opt "ts" fields with Some (Json.Num n) -> n | _ -> 0.)
  | _ -> 0.

(** The trace_event document for everything [t] retains:
    [{"traceEvents": [...]}], with track-naming metadata first and the
    duration events sorted by timestamp.  An empty store exports just
    the metadata. *)
let to_json (t : Trace.t) : Json.t =
  let calls = Trace.spans t in
  let txns = Trace.txn_spans t in
  let base =
    List.fold_left
      (fun acc (s : Trace.span) -> Float.min acc s.start)
      (List.fold_left
         (fun acc (x : Trace.txn_span) -> Float.min acc x.txn_start)
         infinity txns)
      calls
  in
  let base = if Float.is_finite base then base else 0. in
  let events =
    List.map (call_event ~base) calls
    @ List.concat_map (txn_events ~base) txns
  in
  (* Stable, so a stage child at offset 0 stays after its parent. *)
  let events = List.stable_sort (fun a b -> Float.compare (ts_of a) (ts_of b)) events in
  let meta =
    [ metadata ~name:"process_name" ~tid:0. [ ("name", Json.Str "sdnshield") ];
      metadata ~name:"thread_name" ~tid:call_track
        [ ("name", Json.Str "mediated calls") ];
      metadata ~name:"thread_name" ~tid:txn_track
        [ ("name", Json.Str "lifecycle transactions") ] ]
  in
  Json.Obj
    [ ("traceEvents", Json.Arr (meta @ events));
      ("displayTimeUnit", Json.Str "ms") ]

let to_string t = Json.to_string (to_json t)
