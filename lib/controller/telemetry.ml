(* Unified telemetry export.

   Observability lives in per-concern corners: the [Metrics]
   registries (monotone counters, level gauges, latency histograms),
   reference-monitor and fault counters in the runtime, span statistics
   in a [Trace] store, the verdict of a [Health] monitor.  This module
   takes one consistent snapshot of all of them and renders it two
   ways:

   - JSON, for programmatic consumers (and the [sdnshield telemetry]
     CLI command), with a minimal parser alongside so round-trips can
     be validated without external dependencies;
   - Prometheus text exposition format (version 0.0.4), because that is
     what an SDN operator's monitoring stack actually scrapes.

   The snapshot reads the process-wide Metrics registries itself;
   runtime-owned counters (reference-monitor totals, fault counters)
   are passed in by the caller — [Runtime.telemetry] does this — so
   this module depends only on [Metrics] and [Trace], never on the
   runtime. *)

type snapshot = {
  counters : (string * int) list;
      (** Caller-supplied monotone counters (calls, denials, fault
          counters, ...), in the caller's order. *)
  registry_counters : (string * int) list;
      (** The {!Metrics} counter registry, sorted by name. *)
  histograms : (string * Metrics.Histogram.export) list;
  gauges : (string * Metrics.gauge) list;
  trace : Trace.stats option;
  health : Health.verdict option;
      (** The sliding-window monitor's judgment at snapshot time. *)
}

(** One consistent snapshot: [counters], [trace] and [health] come
    from the caller (the registries know nothing of runtimes),
    everything else from the {!Metrics} registries.  Each registry is
    read atomically per entry; the snapshot as a whole is not a
    stop-the-world cut. *)
let snapshot ?(counters = []) ?trace ?health () =
  { counters;
    registry_counters = Metrics.counter_report ();
    histograms =
      List.map
        (fun (name, h) -> (name, Metrics.Histogram.export h))
        (Metrics.hist_report ());
    gauges = Metrics.gauge_report ();
    trace = Option.map Trace.stats trace;
    health = Option.map Health.verdict health }

(* JSON ---------------------------------------------------------------------

   A deliberately small JSON: objects, arrays, strings, finite numbers,
   booleans, null.  Non-finite floats serialize as [null] (JSON has no
   NaN), which only affects the min/max of empty histograms. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let rec write b = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Num f ->
      if not (Float.is_finite f) then Buffer.add_string b "null"
      else if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string b (Printf.sprintf "%.0f" f)
      else Buffer.add_string b (Printf.sprintf "%.17g" f)
    | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
    | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char b ',';
          write b item)
        items;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          write b (Str k);
          Buffer.add_char b ':';
          write b v)
        fields;
      Buffer.add_char b '}'

  let to_string v =
    let b = Buffer.create 1024 in
    write b v;
    Buffer.contents b

  exception Parse of string

  (* Recursive-descent parser over a cursor.  Enough JSON to read back
     what [write] emits (plus the usual whitespace freedom); \u escapes
     decode only the ASCII range this module ever produces. *)
  let of_string (s : string) : (t, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word v =
      if !pos + String.length word <= n
         && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char b '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char b '\\'; advance (); go ()
          | Some '/' -> Buffer.add_char b '/'; advance (); go ()
          | Some 'n' -> Buffer.add_char b '\n'; advance (); go ()
          | Some 'r' -> Buffer.add_char b '\r'; advance (); go ()
          | Some 't' -> Buffer.add_char b '\t'; advance (); go ()
          | Some 'b' -> Buffer.add_char b '\b'; advance (); go ()
          | Some 'f' -> Buffer.add_char b '\012'; advance (); go ()
          | Some 'u' ->
            advance ();
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub s !pos 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> fail "bad \\u escape"
            in
            pos := !pos + 4;
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else
              (* Outside what we emit; keep the escape verbatim. *)
              Buffer.add_string b ("\\u" ^ hex);
            go ()
          | _ -> fail "bad escape")
        | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> is_num_char c | None -> false) do
        advance ()
      done;
      if !pos = start then fail "expected number";
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "malformed number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              fields ((k, v) :: acc)
            | Some '}' ->
              advance ();
              List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              items (v :: acc)
            | Some ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (items [])
        end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse msg -> Error msg

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

let json_of_hist (h : Metrics.Histogram.export) : Json.t =
  Json.Obj
    [ ("n", Json.Num (float_of_int h.Metrics.Histogram.n));
      ("sum", Json.Num h.Metrics.Histogram.sum);
      ("min", Json.Num h.Metrics.Histogram.min);
      ("max", Json.Num h.Metrics.Histogram.max);
      ("underflow", Json.Num (float_of_int h.Metrics.Histogram.underflow));
      ("overflow", Json.Num (float_of_int h.Metrics.Histogram.overflow));
      ("cells",
       Json.Arr
         (List.map
            (fun (lo, hi, count) ->
              Json.Arr
                [ Json.Num lo; Json.Num hi;
                  Json.Num (float_of_int count) ])
            h.Metrics.Histogram.cells)) ]

let json_of_trace (s : Trace.stats) : Json.t =
  Json.Obj
    [ ("capacity", Json.Num (float_of_int s.Trace.capacity));
      ("seen", Json.Num (float_of_int s.Trace.seen));
      ("recorded", Json.Num (float_of_int s.Trace.recorded));
      ("sampled_out", Json.Num (float_of_int s.Trace.sampled_out));
      ("dropped", Json.Num (float_of_int s.Trace.dropped));
      ("stored", Json.Num (float_of_int s.Trace.stored));
      ("sampling", Json.Num s.Trace.sampling);
      ("txn_capacity", Json.Num (float_of_int s.Trace.txn_capacity));
      ("txn_recorded", Json.Num (float_of_int s.Trace.txn_recorded));
      ("txn_dropped", Json.Num (float_of_int s.Trace.txn_dropped));
      ("txn_stored", Json.Num (float_of_int s.Trace.txn_stored)) ]

let json_of_health (v : Health.verdict) : Json.t =
  Json.Obj
    [ ("status", Json.Str (Health.status_to_string v.Health.status));
      ("window_s", Json.Num v.Health.window);
      ("totals",
       Json.Obj (List.map (fun (k, x) -> (k, Json.Num x)) v.Health.totals));
      ("causes",
       Json.Arr
         (List.map
            (fun (c : Health.cause) ->
              Json.Obj
                [ ("signal", Json.Str c.Health.cause_signal);
                  ("observed", Json.Num c.Health.observed);
                  ("threshold", Json.Num c.Health.threshold);
                  ("level", Json.Str (Health.status_to_string c.Health.level))
                ])
            v.Health.causes)) ]

let to_json_value (s : snapshot) : Json.t =
  let counts cs =
    Json.Obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) cs)
  in
  Json.Obj
    [ ("counters", counts s.counters);
      ("registry_counters", counts s.registry_counters);
      ("histograms",
       Json.Obj (List.map (fun (k, h) -> (k, json_of_hist h)) s.histograms));
      ("gauges",
       Json.Obj
         (List.map
            (fun (k, (g : Metrics.gauge)) ->
              ( k,
                Json.Obj
                  [ ("depth", Json.Num (float_of_int g.Metrics.depth));
                    ("hwm", Json.Num (float_of_int g.Metrics.hwm)) ] ))
            s.gauges));
      ("trace",
       (match s.trace with None -> Json.Null | Some tr -> json_of_trace tr));
      ("health",
       match s.health with None -> Json.Null | Some v -> json_of_health v) ]

let to_json s = Json.to_string (to_json_value s)

(* Prometheus text exposition ------------------------------------------------ *)

(* Metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.  Registry names like
   "lat:app:learning-switch" carry ':' (legal but conventionally
   reserved) and '-'; they go into label VALUES, which are free-form,
   while the metric name itself stays fixed per family. *)

let escape_label v =
  let b = Buffer.create (String.length v + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let sanitize_metric_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let to_prometheus (s : snapshot) : string =
  let b = Buffer.create 4096 in
  let line ?(labels = []) name value =
    Buffer.add_string b name;
    (match labels with
    | [] -> ()
    | labels ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "%s=\"%s\"" k (escape_label v)))
        labels;
      Buffer.add_char b '}');
    Buffer.add_string b
      (if Float.is_integer value && Float.abs value < 1e15 then
         Printf.sprintf " %.0f\n" value
       else Printf.sprintf " %g\n" value)
  in
  let header name typ help =
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ)
  in
  let counter help (k, v) =
    let name = "sdnshield_" ^ sanitize_metric_name k ^ "_total" in
    header name "counter" (help ^ " " ^ k ^ ".");
    line name (float_of_int v)
  in
  List.iter (counter "Runtime counter") s.counters;
  List.iter (counter "Counter") s.registry_counters;
  (* Queues ([queue:*]) share the depth and high-water families, with
     the registry name in the [queue] label; any other level is a
     family of its own. *)
  let queues, levels =
    List.partition (fun (k, _) -> String.starts_with ~prefix:"queue:" k) s.gauges
  in
  if queues <> [] then begin
    header "sdnshield_queue_depth" "gauge" "Current depth of a runtime queue.";
    List.iter
      (fun (k, (g : Metrics.gauge)) ->
        line ~labels:[ ("queue", k) ] "sdnshield_queue_depth"
          (float_of_int g.Metrics.depth))
      queues;
    header "sdnshield_queue_high_water" "gauge"
      "High-water mark of a runtime queue.";
    List.iter
      (fun (k, (g : Metrics.gauge)) ->
        line ~labels:[ ("queue", k) ] "sdnshield_queue_high_water"
          (float_of_int g.Metrics.hwm))
      queues
  end;
  List.iter
    (fun (k, (g : Metrics.gauge)) ->
      let name = "sdnshield_" ^ sanitize_metric_name k in
      header name "gauge" ("Level " ^ k ^ ".");
      line name (float_of_int g.Metrics.depth))
    levels;
  if s.histograms <> [] then begin
    header "sdnshield_latency_seconds" "histogram"
      "Mediated-call latency by stage (log-linear buckets).";
    List.iter
      (fun (k, (h : Metrics.Histogram.export)) ->
        let labels le = [ ("stage", k); ("le", le) ] in
        (* Prometheus buckets are cumulative (<= le); underflow samples
           sit below every bound, so they seed the running count. *)
        let cum = ref h.Metrics.Histogram.underflow in
        List.iter
          (fun (_, hi, count) ->
            cum := !cum + count;
            line
              ~labels:(labels (Printf.sprintf "%g" hi))
              "sdnshield_latency_seconds_bucket" (float_of_int !cum))
          h.Metrics.Histogram.cells;
        line ~labels:(labels "+Inf") "sdnshield_latency_seconds_bucket"
          (float_of_int h.Metrics.Histogram.n);
        line
          ~labels:[ ("stage", k) ]
          "sdnshield_latency_seconds_sum" h.Metrics.Histogram.sum;
        line
          ~labels:[ ("stage", k) ]
          "sdnshield_latency_seconds_count"
          (float_of_int h.Metrics.Histogram.n))
      s.histograms
  end;
  (match s.trace with
  | None -> ()
  | Some tr ->
    (* Counts since the store's creation are counters; what its rings
       hold now is a level. *)
    let by_state family help counts =
      header family "counter" help;
      List.iter
        (fun (state, v) ->
          line ~labels:[ ("state", state) ] family (float_of_int v))
        counts
    in
    let level family help v =
      header family "gauge" help;
      line family v
    in
    by_state "sdnshield_trace_spans_total"
      "Calls offered to the span store (seen), recorded, overwritten by \
       its ring (dropped) and sampled out."
      [ ("seen", tr.Trace.seen); ("recorded", tr.Trace.recorded);
        ("dropped", tr.Trace.dropped); ("sampled_out", tr.Trace.sampled_out) ];
    level "sdnshield_trace_spans_stored" "Call spans the store holds."
      (float_of_int tr.Trace.stored);
    level "sdnshield_trace_sampling_ratio" "Effective trace sampling ratio."
      tr.Trace.sampling;
    by_state "sdnshield_trace_txn_spans_total"
      "Lifecycle-transaction spans recorded and overwritten by the ring \
       (dropped)."
      [ ("recorded", tr.Trace.txn_recorded); ("dropped", tr.Trace.txn_dropped) ];
    level "sdnshield_trace_txn_spans_stored"
      "Lifecycle-transaction spans the store holds."
      (float_of_int tr.Trace.txn_stored));
  (match s.health with
  | None -> ()
  | Some v ->
    header "sdnshield_health_status" "gauge"
      "Sliding-window health verdict: 0 healthy, 1 degraded, 2 unhealthy.";
    line "sdnshield_health_status"
      (float_of_int (Health.status_severity v.Health.status));
    header "sdnshield_health_window_seconds" "gauge"
      "Length of the health monitor's sliding window.";
    line "sdnshield_health_window_seconds" v.Health.window;
    header "sdnshield_health_signal" "gauge"
      "Windowed value per health signal (counts, or seconds for \
       stage-max-s).";
    List.iter
      (fun (k, x) -> line ~labels:[ ("signal", k) ] "sdnshield_health_signal" x)
      v.Health.totals;
    if v.Health.causes <> [] then begin
      header "sdnshield_health_cause_level" "gauge"
        "Severity of each crossed health rule: 1 degraded, 2 unhealthy.";
      List.iter
        (fun (c : Health.cause) ->
          line
            ~labels:[ ("signal", c.Health.cause_signal) ]
            "sdnshield_health_cause_level"
            (float_of_int (Health.status_severity c.Health.level)))
        v.Health.causes
    end);
  Buffer.contents b

(* Shape validation for the exposition text.  Every non-comment line
   must be `name[{label="value",...}] value`, and — family-aware since
   the control-plane observability work — every sample must belong to
   a preceding `# TYPE` declaration of its family: exactly the family
   name for counters and gauges, or the `_bucket`/`_sum`/`_count`
   suffixes for histograms.  Counter families must end `_total`, gauge
   families must not, and `sdnshield_health_status` must read 0, 1 or
   2.  This pins the exposition names the smoke gates (and an
   operator's scrape config) rely on; it is still not a full scrape
   parser. *)
let validate_prometheus (text : string) : (unit, string) result =
  let is_name_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
    | _ -> false
  in
  let families : (string, string) Hashtbl.t = Hashtbl.create 32 in
  let ends_with suffix name =
    let ls = String.length suffix and ln = String.length name in
    ln >= ls && String.sub name (ln - ls) ls = suffix
  in
  let strip suffix name =
    String.sub name 0 (String.length name - String.length suffix)
  in
  let family_of name =
    match Hashtbl.find_opt families name with
    | Some typ -> Some (name, typ)
    | None ->
      (* Histogram samples carry the family name plus a suffix. *)
      List.find_map
        (fun suffix ->
          if ends_with suffix name then
            let base = strip suffix name in
            match Hashtbl.find_opt families base with
            | Some "histogram" -> Some (base, "histogram")
            | _ -> None
          else None)
        [ "_bucket"; "_sum"; "_count" ]
  in
  let check_type_line lineno line =
    (* "# TYPE <name> <type>" — record the family; anything else
       starting with '#' is a comment/HELP and passes. *)
    match String.split_on_char ' ' line with
    | [ "#"; "TYPE"; name; typ ] ->
      if
        not (List.mem typ [ "counter"; "gauge"; "histogram"; "summary";
                            "untyped" ])
      then Error (Printf.sprintf "line %d: unknown metric type %S" lineno typ)
      else if typ = "counter" && not (ends_with "_total" name) then
        Error
          (Printf.sprintf "line %d: counter family %s must end _total" lineno
             name)
      else if typ = "gauge" && ends_with "_total" name then
        Error
          (Printf.sprintf "line %d: gauge family %s must not end _total"
             lineno name)
      else begin
        Hashtbl.replace families name typ;
        Ok ()
      end
    | _ -> Ok ()
  in
  let check_line lineno line =
    if line = "" then Ok ()
    else if String.length line >= 1 && line.[0] = '#' then
      check_type_line lineno line
    else
      let name_end = ref 0 in
      while
        !name_end < String.length line && is_name_char line.[!name_end]
      do
        incr name_end
      done;
      if !name_end = 0 then
        Error (Printf.sprintf "line %d: no metric name" lineno)
      else
        let name = String.sub line 0 !name_end in
        let rest = String.sub line !name_end (String.length line - !name_end) in
        let rest =
          if rest <> "" && rest.[0] = '{' then
            match String.index_opt rest '}' with
            | Some i -> String.sub rest (i + 1) (String.length rest - i - 1)
            | None -> rest (* flagged below: no value after unclosed braces *)
          else rest
        in
        if String.length rest < 2 || rest.[0] <> ' ' then
          Error (Printf.sprintf "line %d: missing value" lineno)
        else
          let v = String.sub rest 1 (String.length rest - 1) in
          let value_ok =
            if v = "+Inf" || v = "-Inf" || v = "NaN" then Ok ()
            else
              match float_of_string_opt v with
              | Some _ -> Ok ()
              | None -> Error (Printf.sprintf "line %d: bad value %S" lineno v)
          in
          match value_ok with
          | Error _ as e -> e
          | Ok () -> (
            match family_of name with
            | None ->
              Error
                (Printf.sprintf
                   "line %d: sample %s has no preceding # TYPE family" lineno
                   name)
            | Some (_, _) ->
              if
                name = "sdnshield_health_status"
                && not (List.mem v [ "0"; "1"; "2" ])
              then
                Error
                  (Printf.sprintf
                     "line %d: sdnshield_health_status must be 0, 1 or 2 \
                      (got %s)"
                     lineno v)
              else Ok ())
  in
  let lines = String.split_on_char '\n' text in
  let rec go lineno = function
    | [] -> Ok ()
    | line :: rest -> (
      match check_line lineno line with
      | Ok () -> go (lineno + 1) rest
      | Error _ as e -> e)
  in
  go 1 lines

(* Human-readable rendering -------------------------------------------------- *)

let pp ppf (s : snapshot) =
  List.iter (fun (k, v) -> Fmt.pf ppf "%s=%d@ " k v) s.counters;
  Fmt.pf ppf "@.";
  (match s.trace with
  | None -> ()
  | Some tr -> Fmt.pf ppf "%a@." Trace.pp_stats tr);
  (match s.health with
  | None -> ()
  | Some v -> Fmt.pf ppf "%a@." Health.pp_verdict v);
  List.iter
    (fun (k, (g : Metrics.gauge)) ->
      Fmt.pf ppf "gauge %-24s depth=%-6d hwm=%d@." k g.Metrics.depth
        g.Metrics.hwm)
    s.gauges;
  List.iter (fun (k, v) -> Fmt.pf ppf "count %-24s %d@." k v)
    s.registry_counters;
  List.iter
    (fun (k, (h : Metrics.Histogram.export)) ->
      if h.Metrics.Histogram.n = 0 then
        Fmt.pf ppf "hist  %-24s (empty)@." k
      else
        Fmt.pf ppf "hist  %-24s n=%-8d min=%.1fus max=%.1fus mean=%.1fus@." k
          h.Metrics.Histogram.n
          (h.Metrics.Histogram.min *. 1e6)
          (h.Metrics.Histogram.max *. 1e6)
          (h.Metrics.Histogram.sum /. float_of_int h.Metrics.Histogram.n *. 1e6))
    s.histograms
