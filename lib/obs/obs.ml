module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | Arr of t list
    | Obj of (string * t) list

  let escape_string buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let to_string v =
    let buf = Buffer.create 256 in
    let rec go = function
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Int i -> Buffer.add_string buf (string_of_int i)
      | Float f ->
          if Float.is_finite f then
            (* %.17g round-trips every float and never prints inf/nan *)
            Buffer.add_string buf (Printf.sprintf "%.17g" f)
          else Buffer.add_string buf "null"
      | String s -> escape_string buf s
      | Arr xs ->
          Buffer.add_char buf '[';
          List.iteri
            (fun i x ->
              if i > 0 then Buffer.add_char buf ',';
              go x)
            xs;
          Buffer.add_char buf ']'
      | Obj fields ->
          Buffer.add_char buf '{';
          List.iteri
            (fun i (k, x) ->
              if i > 0 then Buffer.add_char buf ',';
              escape_string buf k;
              Buffer.add_char buf ':';
              go x)
            fields;
          Buffer.add_char buf '}'
    in
    go v;
    Buffer.contents buf

  exception Bad of string

  (* recursive-descent parser over a string with one cursor *)
  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected %C" c)
    in
    let literal word v =
      if !pos + String.length word <= n
         && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
              incr pos;
              if !pos >= n then fail "unterminated escape";
              (match s.[!pos] with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'u' ->
                  if !pos + 4 >= n then fail "short \\u escape";
                  let hex = String.sub s (!pos + 1) 4 in
                  let code =
                    try int_of_string ("0x" ^ hex)
                    with _ -> fail "bad \\u escape"
                  in
                  (* keep it simple: BMP code points as UTF-8 *)
                  if code < 0x80 then Buffer.add_char buf (Char.chr code)
                  else if code < 0x800 then begin
                    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                  end
                  else begin
                    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                    Buffer.add_char buf
                      (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                  end;
                  pos := !pos + 4
              | c -> fail (Printf.sprintf "bad escape %C" c));
              incr pos;
              go ()
          | c ->
              Buffer.add_char buf c;
              incr pos;
              go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let number_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && number_char s.[!pos] do incr pos done;
      let text = String.sub s start (!pos - start) in
      (* JSON forbids leading zeros and leading '+' *)
      let digits =
        if String.length text > 0 && text.[0] = '-' then
          String.sub text 1 (String.length text - 1)
        else text
      in
      if
        String.length digits > 1
        && digits.[0] = '0'
        && (match digits.[1] with '0' .. '9' -> true | _ -> false)
      then fail (Printf.sprintf "leading zero in %S" text);
      if String.length text > 0 && text.[0] = '+' then
        fail (Printf.sprintf "leading '+' in %S" text);
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "bad number %S" text))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
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
                  incr pos;
                  fields ((k, v) :: acc)
              | Some '}' ->
                  incr pos;
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (fields [])
          end
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            Arr []
          end
          else begin
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  items (v :: acc)
              | Some ']' ->
                  incr pos;
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            Arr (items [])
          end
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg

  let member k = function
    | Obj fields -> List.assoc_opt k fields
    | _ -> None
end

module Clock = struct
  let wall () = Unix.gettimeofday ()
end

type phase = Begin | End | Instant

type event = {
  tick : int;
  name : string;
  phase : phase;
  payload : int;
  domain : int;
  wall : float;
}

module Histogram = struct
  (* bucket 0 = {0}; bucket i >= 1 = [2^(i-1), 2^i - 1].  max_int is
     2^62 - 1 on 64-bit OCaml, so 63 buckets cover every value. *)
  let num_buckets = 63

  type h = { counts : int array; mutable total : int }

  let make () = { counts = Array.make num_buckets 0; total = 0 }

  let bucket_of v =
    if v < 0 then invalid_arg "Obs.Histogram: negative value";
    let i = ref 0 and x = ref v in
    while !x > 0 do
      incr i;
      x := !x lsr 1
    done;
    !i

  let bounds i =
    if i <= 0 then (0, 0)
    else
      ( 1 lsl (i - 1),
        (* 1 lsl 62 overflows; the top bucket is capped at max_int *)
        if i >= num_buckets - 1 then max_int else (1 lsl i) - 1 )

  let observe h v =
    h.counts.(bucket_of v) <- h.counts.(bucket_of v) + 1;
    h.total <- h.total + 1

  let observations h = h.total

  let buckets h =
    let acc = ref [] in
    for i = num_buckets - 1 downto 0 do
      if h.counts.(i) > 0 then begin
        let lo, hi = bounds i in
        acc := (lo, hi, h.counts.(i)) :: !acc
      end
    done;
    !acc

  let merge a b =
    {
      counts = Array.init num_buckets (fun i -> a.counts.(i) + b.counts.(i));
      total = a.total + b.total;
    }

  let merge_into ~into b =
    for i = 0 to num_buckets - 1 do
      into.counts.(i) <- into.counts.(i) + b.counts.(i)
    done;
    into.total <- into.total + b.total

  let equal a b = a.counts = b.counts

end

module Sketch = struct
  (* A quantile sketch is a Histogram plus enough extra state (sum,
     min, max) to interpolate quantiles inside a bucket and clamp the
     estimate to the observed range.  All state is integer counts over
     deterministic observations, so sketches are as pinnable as the
     histograms they wrap. *)
  type s = {
    hist : Histogram.h;
    mutable sum : int;
    mutable min_v : int; (* max_int = no observations yet *)
    mutable max_v : int; (* -1 = no observations yet *)
  }

  let make () =
    { hist = Histogram.make (); sum = 0; min_v = max_int; max_v = -1 }

  let observe s v =
    Histogram.observe s.hist v;
    s.sum <- s.sum + v;
    if v < s.min_v then s.min_v <- v;
    if v > s.max_v then s.max_v <- v

  let count s = Histogram.observations s.hist

  let sum s = s.sum

  let min_value s = if s.min_v = max_int then 0 else s.min_v

  let max_value s = if s.max_v < 0 then 0 else s.max_v

  let quantile s q =
    let n = count s in
    if n = 0 then 0.0
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      (* 1-based fractional rank; rank r selects the bucket holding the
         ceil(r)-th smallest observation, matching the sorted-array
         oracle index ceil(q*n) - 1 (see test_obs). *)
      let rank = q *. float_of_int n in
      if rank <= 0.0 then float_of_int (min_value s)
      else begin
        let result = ref (float_of_int (max_value s)) in
        let cum = ref 0.0 and found = ref false in
        List.iter
          (fun (lo, hi, c) ->
            if not !found then begin
              let c = float_of_int c in
              if !cum +. c >= rank then begin
                found := true;
                (* interpolate within the bucket, clamped to the
                   observed range (the top bucket's nominal hi is
                   max_int) *)
                let lo_eff = max lo s.min_v and hi_eff = min hi s.max_v in
                let width = float_of_int (hi_eff - lo_eff + 1) in
                let frac = (rank -. !cum) /. c in
                result := float_of_int lo_eff +. (width *. frac)
              end
              else cum := !cum +. c
            end)
          (Histogram.buckets s.hist);
        Float.max
          (float_of_int (min_value s))
          (Float.min (float_of_int (max_value s)) !result)
      end
    end

  let merge a b =
    {
      hist = Histogram.merge a.hist b.hist;
      sum = a.sum + b.sum;
      min_v = min a.min_v b.min_v;
      max_v = max a.max_v b.max_v;
    }

  let merge_into ~into b =
    Histogram.merge_into ~into:into.hist b.hist;
    into.sum <- into.sum + b.sum;
    if b.min_v < into.min_v then into.min_v <- b.min_v;
    if b.max_v > into.max_v then into.max_v <- b.max_v

  let equal a b =
    Histogram.equal a.hist b.hist
    && a.sum = b.sum
    && a.min_v = b.min_v
    && a.max_v = b.max_v

  let buckets s = Histogram.buckets s.hist

  let to_json s =
    Json.Obj
      [
        ("count", Json.Int (count s));
        ("sum", Json.Int s.sum);
        ("min", Json.Int (min_value s));
        ("max", Json.Int (max_value s));
        ("p50", Json.Float (quantile s 0.5));
        ("p90", Json.Float (quantile s 0.9));
        ("p99", Json.Float (quantile s 0.99));
        ( "buckets",
          Json.Arr
            (List.map
               (fun (lo, hi, c) ->
                 Json.Arr [ Json.Int lo; Json.Int hi; Json.Int c ])
               (buckets s)) );
      ]
end

module Rolling = struct
  (* One bucket per clock unit, indexed [now mod window]: noting at a
     timestamp lazily reclaims the slot if its stamp is stale, so the
     structure is O(window) space with O(1) note and O(window) rate. *)
  type r = {
    window : int;
    stamps : int array;
    counts : int array;
    mutable total : int;
    mutable last : int;
  }

  let make ~window =
    if window < 1 then invalid_arg "Obs.Rolling.make: window < 1";
    {
      window;
      stamps = Array.make window min_int;
      counts = Array.make window 0;
      total = 0;
      last = min_int;
    }

  let window r = r.window

  let note ?(by = 1) r ~now =
    if by < 0 then invalid_arg "Obs.Rolling.note: negative increment";
    if now < 0 then invalid_arg "Obs.Rolling.note: negative timestamp";
    if now < r.last then invalid_arg "Obs.Rolling.note: clock went backwards";
    let slot = now mod r.window in
    if r.stamps.(slot) <> now then begin
      r.stamps.(slot) <- now;
      r.counts.(slot) <- 0
    end;
    r.counts.(slot) <- r.counts.(slot) + by;
    r.total <- r.total + by;
    r.last <- now

  let in_window r ~now =
    let acc = ref 0 in
    for slot = 0 to r.window - 1 do
      let s = r.stamps.(slot) in
      if s > now - r.window && s <= now then acc := !acc + r.counts.(slot)
    done;
    !acc

  let rate r ~now = float_of_int (in_window r ~now) /. float_of_int r.window

  let total r = r.total
end

module Trace = struct
  type tr = { cap : int; buf : event array; mutable n_emitted : int }

  let dummy_event =
    { tick = 0; name = ""; phase = Instant; payload = 0; domain = 0; wall = 0.0 }

  let make cap =
    let cap = max 1 cap in
    { cap; buf = Array.make cap dummy_event; n_emitted = 0 }

  let capacity tr = tr.cap

  let emitted tr = tr.n_emitted

  let dropped tr = max 0 (tr.n_emitted - tr.cap)

  let push tr e =
    tr.buf.(tr.n_emitted mod tr.cap) <- e;
    tr.n_emitted <- tr.n_emitted + 1

  let events tr =
    let n = min tr.n_emitted tr.cap in
    let start = if tr.n_emitted <= tr.cap then 0 else tr.n_emitted mod tr.cap in
    List.init n (fun i -> tr.buf.((start + i) mod tr.cap))

  let clear tr = tr.n_emitted <- 0

  let phase_string = function Begin -> "B" | End -> "E" | Instant -> "i"

  let category name =
    match String.index_opt name '/' with
    | Some i -> String.sub name 0 i
    | None -> name

  let to_chrome_json tr =
    let evs = events tr in
    let t0 =
      List.fold_left (fun acc e -> Float.min acc e.wall) infinity evs
    in
    let t0 = if Float.is_finite t0 then t0 else 0.0 in
    let item e =
      let base =
        [
          ("name", Json.String e.name);
          ("cat", Json.String (category e.name));
          ("ph", Json.String (phase_string e.phase));
          ("ts", Json.Float ((e.wall -. t0) *. 1e6));
          ("pid", Json.Int 1);
          ("tid", Json.Int (e.domain + 1));
          ( "args",
            Json.Obj
              [ ("tick", Json.Int e.tick); ("payload", Json.Int e.payload) ]
          );
        ]
      in
      Json.Obj
        (match e.phase with
        | Instant -> base @ [ ("s", Json.String "t") ]
        | Begin | End -> base)
    in
    (* A truncated ring must not present itself as a complete stream:
       lead with an explicit global instant carrying the drop count. *)
    let marker =
      if dropped tr = 0 then []
      else
        [
          Json.Obj
            [
              ("name", Json.String "obs/dropped");
              ("cat", Json.String "obs");
              ("ph", Json.String "i");
              ("ts", Json.Float 0.0);
              ("pid", Json.Int 1);
              ("tid", Json.Int 1);
              ("args", Json.Obj [ ("dropped", Json.Int (dropped tr)) ]);
              ("s", Json.String "g");
            ];
        ]
    in
    Json.Obj
      [
        ("traceEvents", Json.Arr (marker @ List.map item evs));
        ("displayTimeUnit", Json.String "ms");
      ]
end

module Log = struct
  type level = Debug | Info | Warn | Error

  let level_string = function
    | Debug -> "debug"
    | Info -> "info"
    | Warn -> "warn"
    | Error -> "error"

  type record = {
    seq : int;
    level : level;
    req : string;
    name : string;
    payload : Json.t;
    wall : float;
  }

  type l = {
    cap : int;
    buf : record array;
    mutable n_emitted : int;
    sink : out_channel option;
  }

  let dummy =
    { seq = 0; level = Debug; req = ""; name = ""; payload = Json.Null;
      wall = 0.0 }

  let default_capacity = 256

  let make ?(capacity = default_capacity) ?sink () =
    let cap = max 1 capacity in
    { cap; buf = Array.make cap dummy; n_emitted = 0; sink }

  let record_json ?(times = true) r =
    Json.Obj
      ([
         ("seq", Json.Int r.seq);
         ("level", Json.String (level_string r.level));
         ("req", Json.String r.req);
         ("event", Json.String r.name);
         ("payload", r.payload);
       ]
      @ if times then [ ("ts", Json.Float r.wall) ] else [])

  let log l ?(payload = Json.Null) ?(req = "") ~level name =
    let r =
      { seq = l.n_emitted; level; req; name; payload; wall = Clock.wall () }
    in
    l.buf.(l.n_emitted mod l.cap) <- r;
    l.n_emitted <- l.n_emitted + 1;
    match l.sink with
    | None -> ()
    | Some oc ->
        output_string oc (Json.to_string (record_json ~times:true r));
        output_char oc '\n';
        flush oc

  let emitted l = l.n_emitted

  let dropped l = max 0 (l.n_emitted - l.cap)

  let records l =
    let n = min l.n_emitted l.cap in
    let start = if l.n_emitted <= l.cap then 0 else l.n_emitted mod l.cap in
    List.init n (fun i -> l.buf.((start + i) mod l.cap))

  let to_json ?times l =
    Json.Obj
      [
        ("emitted", Json.Int l.n_emitted);
        ("dropped", Json.Int (dropped l));
        ("items", Json.Arr (List.map (record_json ?times) (records l)));
      ]
end

type counter = { mutable count : int }

type span_cell = { mutable seconds : float; mutable calls : int }

type t = {
  counters_tbl : (string, counter) Hashtbl.t;
  spans_tbl : (string, span_cell) Hashtbl.t;
  hists_tbl : (string, Histogram.h) Hashtbl.t;
  tr : Trace.tr;
}

let default_trace_capacity = 4096

let create ?(trace_capacity = default_trace_capacity) () =
  {
    counters_tbl = Hashtbl.create 16;
    spans_tbl = Hashtbl.create 8;
    hists_tbl = Hashtbl.create 8;
    tr = Trace.make trace_capacity;
  }

let counter t name =
  match Hashtbl.find_opt t.counters_tbl name with
  | Some c -> c
  | None ->
      let c = { count = 0 } in
      Hashtbl.add t.counters_tbl name c;
      c

let incr ?(by = 1) c =
  if by < 0 then invalid_arg "Obs.incr: negative increment";
  c.count <- c.count + by

let value c = c.count

let add t name n = incr ~by:n (counter t name)

let set t name n = (counter t name).count <- n

let span_cell t name =
  match Hashtbl.find_opt t.spans_tbl name with
  | Some s -> s
  | None ->
      let s = { seconds = 0.0; calls = 0 } in
      Hashtbl.add t.spans_tbl name s;
      s

let record_span t name seconds =
  (* the negated comparison also rejects NaN *)
  if not (seconds >= 0.0) then invalid_arg "Obs.record_span: negative duration";
  let s = span_cell t name in
  s.seconds <- s.seconds +. seconds;
  s.calls <- s.calls + 1

let span t name f =
  let start = Clock.wall () in
  let note () = record_span t name (Float.max 0.0 (Clock.wall () -. start)) in
  match f () with
  | v ->
      note ();
      v
  | exception e ->
      note ();
      raise e

let histogram t name =
  match Hashtbl.find_opt t.hists_tbl name with
  | Some h -> h
  | None ->
      let h = Histogram.make () in
      Hashtbl.add t.hists_tbl name h;
      h

let observe t name v = Histogram.observe (histogram t name) v

let trace t = t.tr

let event t ?(payload = 0) name phase =
  Trace.push t.tr
    {
      tick = Trace.emitted t.tr;
      name;
      phase;
      payload;
      domain = 0;
      wall = Clock.wall ();
    }

let inject t ?(payload = 0) ?(domain = 0) ?wall name phase =
  let wall = match wall with Some w -> w | None -> Clock.wall () in
  Trace.push t.tr
    { tick = Trace.emitted t.tr; name; phase; payload; domain; wall }

let absorb ~into ~domain events =
  List.iter
    (fun e -> inject into ~payload:e.payload ~domain ~wall:e.wall e.name e.phase)
    events

let begin_event t ?payload name = event t ?payload name Begin

let end_event t ?payload name = event t ?payload name End

let instant t ?payload name = event t ?payload name Instant

let counters t =
  Hashtbl.fold (fun name c acc -> (name, c.count) :: acc) t.counters_tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let spans t =
  Hashtbl.fold
    (fun name s acc -> (name, s.seconds, s.calls) :: acc)
    t.spans_tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let histograms t =
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.hists_tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Pristine, not merely zeroed: a reused registry must serialize
   byte-identically to a fresh one, so the name tables are emptied
   rather than kept with zero values (a kept name would still appear in
   [to_json] and leak the previous request's vocabulary).  Handles
   obtained before the reset are thereby detached — callers must
   re-acquire them (and re-attach any solver hooks). *)
let reset t =
  Hashtbl.reset t.counters_tbl;
  Hashtbl.reset t.spans_tbl;
  Hashtbl.reset t.hists_tbl;
  Trace.clear t.tr

let histogram_json h =
  Json.Obj
    [
      ("count", Json.Int (Histogram.observations h));
      ( "buckets",
        Json.Arr
          (List.map
             (fun (lo, hi, c) ->
               Json.Arr [ Json.Int lo; Json.Int hi; Json.Int c ])
             (Histogram.buckets h)) );
    ]

let event_json ~times e =
  Json.Obj
    ([
       ("tick", Json.Int e.tick);
       ("name", Json.String e.name);
       ("ph", Json.String (Trace.phase_string e.phase));
       ("arg", Json.Int e.payload);
     ]
    @ (if e.domain <> 0 then [ ("dom", Json.Int e.domain) ] else [])
    @ if times then [ ("ts", Json.Float e.wall) ] else [])

let to_json ?(times = true) t =
  let counter_fields =
    List.map (fun (name, v) -> (name, Json.Int v)) (counters t)
  in
  let histogram_fields =
    List.map (fun (name, h) -> (name, histogram_json h)) (histograms t)
  in
  let events =
    (* mirror [Trace.to_chrome_json]: a truncated ring leads with an
       explicit marker item instead of silently reading as complete *)
    let marker =
      if Trace.dropped t.tr = 0 then []
      else
        [
          Json.Obj
            [
              ("tick", Json.Int (-1));
              ("name", Json.String "obs/dropped");
              ("ph", Json.String "i");
              ("arg", Json.Int (Trace.dropped t.tr));
            ];
        ]
    in
    Json.Obj
      [
        ("emitted", Json.Int (Trace.emitted t.tr));
        ("dropped", Json.Int (Trace.dropped t.tr));
        ( "items",
          Json.Arr (marker @ List.map (event_json ~times) (Trace.events t.tr))
        );
      ]
  in
  let base =
    [
      ("counters", Json.Obj counter_fields);
      ("histograms", Json.Obj histogram_fields);
      ("events", events);
    ]
  in
  let fields =
    if times then
      base
      @ [
          ( "spans",
            Json.Obj
              (List.map
                 (fun (name, seconds, calls) ->
                   ( name,
                     Json.Obj
                       [
                         ("seconds", Json.Float seconds);
                         ("calls", Json.Int calls);
                       ] ))
                 (spans t)) );
        ]
    else base
  in
  Json.Obj fields

let emit ?times t = Json.to_string (to_json ?times t)
