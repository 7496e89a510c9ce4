module J = Obs.Json

(* One warm diagnosis context: the unit of caching and of scheduling
   (all requests for one context run on one worker, in arrival order).
   [faulty]/[injected]/[tests]/[inc] are filled in on the worker that
   first uses the context; the main domain only creates the record and
   looks it up, so cache state mutates on exactly one domain at a
   time. *)
type context = {
  ckey : string;
  golden : Netlist.Circuit.t;
  explicit_faulty : Netlist.Circuit.t option;
  errors : int;
  seed : int;
  k : int;
  certify : bool;
  mutable faulty : Netlist.Circuit.t option;
  mutable injected : Sim.Fault.error list;
  mutable tests : Sim.Testgen.test list;
  mutable wanted : int;  (* largest test count generated so far; -1 = none *)
  mutable inc : Diagnosis.Incremental.t option;
}

type t = {
  resolve : string -> Netlist.Circuit.t;
  jobs : int;
  circuits : (string, Netlist.Circuit.t) Cache.t;
  spec_keys : (string, string) Hashtbl.t;  (* spec -> content hash memo *)
  contexts : (string, context) Cache.t;
  mutable registries : Obs.t list;  (* pooled per-request registries *)
  mutable served : int;
  mutable warm_hits : int;
  mutable cold_misses : int;
  mutable evictions : int;
  mutable errors : int;
  (* observability: [mobs] holds the session's cache counters and (when
     [tracing]) the stitched cross-domain trace; mutated only on the
     main domain *)
  mobs : Obs.t;
  tracing : bool;
  slow_ms : int option;
  log : Obs.Log.l;
  mutable next_trace : int;  (* trace ids, assigned at decode order *)
  mutable rate_clock : int;  (* monotone whole-second clock for rates *)
  lat_cold : Obs.Sketch.s;
  lat_warm : Obs.Sketch.s;
  queue_cold : Obs.Sketch.s;
  queue_warm : Obs.Sketch.s;
  gc_alloc : Obs.Sketch.s;
  req_conflicts : Obs.Sketch.s;
  req_events : Obs.Sketch.s;
  req_rate : Obs.Rolling.r;
  err_rate : Obs.Rolling.r;
}

let rate_window = 60

let create ?(circuit_capacity = 8) ?(context_capacity = 16) ?slow_ms ?log
    ?(trace = false) ~jobs resolve =
  let mobs = Obs.create ~trace_capacity:(1 lsl 16) () in
  {
    resolve;
    jobs = Par.clamp_jobs jobs;
    circuits =
      Cache.create ~obs:mobs ~name:"cache/circuit" ~capacity:circuit_capacity
        ();
    spec_keys = Hashtbl.create 16;
    contexts =
      Cache.create ~obs:mobs ~name:"cache/context" ~capacity:context_capacity
        ();
    registries = [];
    served = 0;
    warm_hits = 0;
    cold_misses = 0;
    evictions = 0;
    errors = 0;
    mobs;
    tracing = trace;
    slow_ms;
    log = (match log with Some l -> l | None -> Obs.Log.make ());
    next_trace = 0;
    rate_clock = 0;
    lat_cold = Obs.Sketch.make ();
    lat_warm = Obs.Sketch.make ();
    queue_cold = Obs.Sketch.make ();
    queue_warm = Obs.Sketch.make ();
    gc_alloc = Obs.Sketch.make ();
    req_conflicts = Obs.Sketch.make ();
    req_events = Obs.Sketch.make ();
    req_rate = Obs.Rolling.make ~window:rate_window;
    err_rate = Obs.Rolling.make ~window:rate_window;
  }

let obs t = t.mobs

let slow_log t = t.log

let sketches t =
  [
    ("latency_cold_us", t.lat_cold);
    ("latency_warm_us", t.lat_warm);
    ("queue_wait_cold_us", t.queue_cold);
    ("queue_wait_warm_us", t.queue_warm);
    ("gc_allocated_words", t.gc_alloc);
    ("request_conflicts", t.req_conflicts);
    ("request_events", t.req_events);
  ]

(* wall-second timestamps from concurrent workers are not monotone in
   response order; clamp them onto one non-decreasing session clock *)
let rate_now t wall =
  let now = max t.rate_clock (int_of_float (Float.max 0.0 wall)) in
  t.rate_clock <- now;
  now

let note_error t =
  t.errors <- t.errors + 1;
  Obs.Rolling.note t.err_rate ~now:(rate_now t (Obs.Clock.wall ()))

(* ---------- circuit cache ---------- *)

let circuit_key c =
  Digest.to_hex (Digest.string (Netlist.Bench_format.to_string c))

(* may raise [Failure] via [resolve] *)
let resolve_circuit t spec =
  let insert () =
    let c = t.resolve spec in
    let key = circuit_key c in
    Hashtbl.replace t.spec_keys spec key;
    Cache.add t.circuits key c;
    (* parsed netlists hold no external resources: evicting the cache
       entry just drops the reference (live contexts keep theirs) *)
    ignore (Cache.trim t.circuits);
    (key, c)
  in
  match Hashtbl.find_opt t.spec_keys spec with
  | Some key -> (
      match Cache.find t.circuits key with
      | Some c -> (key, c)
      | None -> insert ())
  | None ->
      (* an unseen spec never consulted the cache proper; count the
         miss so hit/miss totals cover every resolution *)
      let r = insert () in
      Obs.add t.mobs "cache/circuit/misses" 1;
      r

(* ---------- context cache ---------- *)

let context_key ~golden_key ~faulty_part ~seed ~k ~certify =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [
            golden_key;
            faulty_part;
            string_of_int seed;
            string_of_int k;
            string_of_bool certify;
          ]))

(* get-or-create on the main domain; may raise [Failure] via [resolve] *)
let context_for t (d : Protocol.diagnose) =
  let golden_key, golden = resolve_circuit t d.Protocol.circuit in
  let explicit_faulty, faulty_part =
    match d.Protocol.faulty with
    | Some spec ->
        let fkey, fc = resolve_circuit t spec in
        (Some fc, "spec:" ^ fkey)
    | None -> (None, "inject:" ^ string_of_int d.Protocol.errors)
  in
  let k =
    match d.Protocol.k with Some k -> k | None -> max 1 d.Protocol.errors
  in
  let ckey =
    context_key ~golden_key ~faulty_part ~seed:d.Protocol.seed ~k
      ~certify:d.Protocol.certify
  in
  match Cache.find t.contexts ckey with
  | Some ctx -> ctx
  | None ->
      let ctx =
        {
          ckey;
          golden;
          explicit_faulty;
          errors = d.Protocol.errors;
          seed = d.Protocol.seed;
          k;
          certify = d.Protocol.certify;
          faulty = None;
          injected = [];
          tests = [];
          wanted = -1;
          inc = None;
        }
      in
      Cache.add t.contexts ckey ctx;
      ctx

let retire_context ctx = Option.iter Diagnosis.Incremental.retire ctx.inc

(* ---------- per-request work (runs on a worker domain) ---------- *)

let ensure_faulty ctx =
  match ctx.faulty with
  | Some f -> f
  | None ->
      let f, errs =
        match ctx.explicit_faulty with
        | Some f -> (f, [])
        | None ->
            Sim.Injector.inject ~seed:ctx.seed ~num_errors:ctx.errors
              ctx.golden
      in
      ctx.faulty <- Some f;
      ctx.injected <- errs;
      f

(* same generator call as the CLI's [run], so a served request sees the
   test set of the equivalent one-shot run; prefix-stable in [wanted] *)
let gen_tests ~golden ~faulty ~seed ~wanted =
  Sim.Testgen.generate ~seed:(seed + 1) ~max_vectors:(1 lsl 16) ~wanted
    ~golden ~faulty

let solution_names circuit sol =
  J.Arr
    (List.map (fun g -> J.String circuit.Netlist.Circuit.names.(g)) sol)

let diagnose_response ~(d : Protocol.diagnose) ~ckey ~warm ~faulty ~injected
    ~ntests ~k ?stats (o : Diagnosis.Outcome.t) =
  let fields =
    [
      ("op", J.String "diagnose");
      ("context", J.String ckey);
      ("warm", J.Bool warm);
      ("tests", J.Int ntests);
      ("k", J.Int k);
      ("solutions", J.Arr (List.map (solution_names faulty) o.solutions));
      ("truncated", J.Bool o.truncated);
    ]
    @ (match injected with
      | [] -> []
      | errs ->
          [ ("injected", solution_names faulty (Sim.Fault.sites errs)) ])
    @ (if d.Protocol.certify then
         [
           ("cert_checks", J.Int o.cert_checks);
           ( "cert_failures",
             J.Arr (List.map (fun s -> J.String s) o.cert_failures) );
         ]
       else [])
    @ match stats with Some s -> [ ("stats", s) ] | None -> []
  in
  Protocol.ok ?id:d.Protocol.id fields

(* the effort of a request that ran no engine *)
let no_effort =
  { Diagnosis.Incremental.outcome = Diagnosis.Outcome.empty; reused = 0;
    revalidated = 0 }

(* what [serve_one] hands back to the scheduler, beyond the response:
   the per-request effort and (when tracing) the captured engine events
   the main domain stitches into the session trace *)
type served_one = {
  sr_resp : J.t;
  sr_warm : bool;
  sr_effort : Diagnosis.Incremental.result;
  sr_nevents : int;
  sr_events : Obs.event list;
}

(* serve one request from its context *)
let serve_one ~tracing registry ctx (d : Protocol.diagnose) =
  Obs.reset registry;
  (* the registry records whenever the response wants a stats block OR
     the session is tracing; the stats block itself is only emitted for
     [stats:true], so responses are unchanged by tracing *)
  let want_obs = d.Protocol.stats || tracing in
  let obs = if want_obs then Some registry else None in
  let effort = ref no_effort in
  let run_engine inc =
    let r =
      Engine.run ?obs ?budget:d.Protocol.budget
        ~max_solutions:d.Protocol.max_solutions inc
    in
    effort := r;
    let stats =
      if d.Protocol.stats then Some (Obs.to_json ~times:false registry)
      else None
    in
    (r.Diagnosis.Incremental.outcome, stats)
  in
  let faulty = ensure_faulty ctx in
  let m = max 0 d.Protocol.tests in
  let resp, warm =
    match ctx.inc with
    | Some inc when m >= ctx.wanted ->
        (* warm hit; grow the live instance first if more tests are
           asked for (prefix stability makes the grown instance equal a
           cold one at the same count) *)
        if m > ctx.wanted then begin
          let full =
            gen_tests ~golden:ctx.golden ~faulty ~seed:ctx.seed ~wanted:m
          in
          let have = List.length ctx.tests in
          let suffix = List.filteri (fun i _ -> i >= have) full in
          Diagnosis.Incremental.attach inc obs;
          if suffix <> [] then Diagnosis.Incremental.add_tests inc suffix;
          ctx.tests <- full;
          ctx.wanted <- m
        end;
        let o, stats = run_engine inc in
        ( diagnose_response ~d ~ckey:ctx.ckey ~warm:true ~faulty
            ~injected:ctx.injected ~ntests:(List.length ctx.tests) ~k:ctx.k
            ?stats o,
          true )
    | cached ->
        (* cold: a deterministic one-shot run, fresh tests and a fresh
           instance.  It becomes the context on first contact; a request
           shrinking the test count cannot reuse the live instance
           (tests are clauses, not assumptions), so its run is thrown
           away and the cached state left untouched *)
        let tests =
          gen_tests ~golden:ctx.golden ~faulty ~seed:ctx.seed ~wanted:m
        in
        let inc, (o, stats) =
          if tests = [] then (None, (Diagnosis.Outcome.empty, None))
          else
            let inc =
              Diagnosis.Incremental.create ?obs ~certify:ctx.certify ~k:ctx.k
                faulty tests
            in
            (Some inc, run_engine inc)
        in
        if Option.is_none cached && m >= ctx.wanted then begin
          ctx.wanted <- m;
          ctx.tests <- tests;
          ctx.inc <- inc
        end
        else Option.iter Diagnosis.Incremental.retire inc;
        ( diagnose_response ~d ~ckey:ctx.ckey ~warm:false ~faulty
            ~injected:ctx.injected ~ntests:(List.length tests) ~k:ctx.k ?stats
            o,
          false )
  in
  {
    sr_resp = resp;
    sr_warm = warm;
    sr_effort = !effort;
    sr_nevents =
      (if want_obs then Obs.Trace.emitted (Obs.trace registry) else 0);
    sr_events =
      (if tracing then Obs.Trace.events (Obs.trace registry) else []);
  }

(* ---------- batch scheduling ---------- *)

let take_registries t n =
  let rec go acc n pool =
    if n = 0 then (List.rev acc, pool)
    else
      match pool with
      | r :: rest -> go (r :: acc) (n - 1) rest
      | [] -> go (Obs.create () :: acc) (n - 1) []
  in
  let rs, rest = go [] n t.registries in
  t.registries <- rest;
  rs

(* per-request measurement produced on the worker, folded into the
   session's sketches/counters/trace on the main domain *)
type measure = {
  m_idx : int;
  m_resp : J.t;
  m_warm : bool option;  (* [None] = the request failed *)
  m_trace : int;
  m_ckey : string;
  m_enqueue : float;
  m_dispatch : float;
  m_finish : float;
  m_gc_words : int;
  m_effort : Diagnosis.Incremental.result;
  m_nevents : int;
  m_events : Obs.event list;
}

let gc_words (g : Gc.stat) =
  g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

let work_one ~tracing registry ctx (idx, d, trace_id, enqueue) =
  let dispatch = Obs.Clock.wall () in
  let g0 = gc_words (Gc.quick_stat ()) in
  match serve_one ~tracing registry ctx d with
  | s ->
      let allocated = Float.max 0.0 (gc_words (Gc.quick_stat ()) -. g0) in
      {
        m_idx = idx;
        m_resp = s.sr_resp;
        m_warm = Some s.sr_warm;
        m_trace = trace_id;
        m_ckey = ctx.ckey;
        m_enqueue = enqueue;
        m_dispatch = dispatch;
        m_finish = Obs.Clock.wall ();
        m_gc_words = int_of_float allocated;
        m_effort = s.sr_effort;
        m_nevents = s.sr_nevents;
        m_events = s.sr_events;
      }
  | exception e ->
      (* the context may be half-updated (say, tests encoded into the
         live instance but not recorded in [ctx.tests]): retire it and
         forget its state here, and [run_batch] evicts it, so no later
         request is answered from it *)
      retire_context ctx;
      ctx.inc <- None;
      ctx.tests <- [];
      ctx.wanted <- -1;
      {
        m_idx = idx;
        m_resp = Protocol.error ?id:d.Protocol.id (Printexc.to_string e);
        m_warm = None;
        m_trace = trace_id;
        m_ckey = ctx.ckey;
        m_enqueue = enqueue;
        m_dispatch = dispatch;
        m_finish = Obs.Clock.wall ();
        m_gc_words = 0;
        m_effort = no_effort;
        m_nevents = 0;
        m_events = [];
      }

let conflicts m = m.m_effort.outcome.stats.Sat.Solver.conflicts

let micros dt = int_of_float (Float.max 0.0 dt *. 1e6)

(* fold one request's measurement into the session state; [w] is the
   worker the request ran on (its stitched spans land on tid [w + 1]) *)
let account t w m =
  t.served <- t.served + 1;
  let latency_us = micros (m.m_finish -. m.m_enqueue) in
  let queue_us = micros (m.m_dispatch -. m.m_enqueue) in
  match m.m_warm with
  | None -> note_error t
  | Some warm ->
      if warm then t.warm_hits <- t.warm_hits + 1
      else t.cold_misses <- t.cold_misses + 1;
      Obs.Sketch.observe (if warm then t.lat_warm else t.lat_cold) latency_us;
      Obs.Sketch.observe (if warm then t.queue_warm else t.queue_cold)
        queue_us;
      Obs.Sketch.observe t.gc_alloc m.m_gc_words;
      Obs.Sketch.observe t.req_conflicts (conflicts m);
      Obs.add t.mobs "incremental/reused" m.m_effort.reused;
      Obs.add t.mobs "incremental/revalidated" m.m_effort.revalidated;
      Obs.Sketch.observe t.req_events m.m_nevents;
      Obs.Rolling.note t.req_rate ~now:(rate_now t m.m_finish);
      (match t.slow_ms with
      | Some ms when latency_us >= ms * 1000 ->
          Obs.add t.mobs "serve/slow" 1;
          Obs.Log.log t.log ~level:Obs.Log.Warn
            ~req:(string_of_int m.m_trace)
            ~payload:
              (J.Obj
                 [
                   ("context", J.String m.m_ckey);
                   ("warm", J.Bool warm);
                   ("latency_us", J.Int latency_us);
                   ("queue_wait_us", J.Int queue_us);
                   ("conflicts", J.Int (conflicts m));
                   ("events", J.Int m.m_nevents);
                 ])
            "serve/slow"
      | _ -> ());
      if t.tracing then begin
        let domain = w + 1 in
        let inj ?payload ~wall name phase =
          Obs.inject t.mobs ?payload ~domain ~wall name phase
        in
        inj ~payload:m.m_trace ~wall:m.m_enqueue "serve/request" Obs.Begin;
        inj ~payload:m.m_trace ~wall:m.m_enqueue "serve/queue" Obs.Begin;
        inj ~payload:m.m_trace ~wall:m.m_dispatch "serve/queue" Obs.End;
        Obs.absorb ~into:t.mobs ~domain m.m_events;
        inj ~payload:m.m_trace ~wall:m.m_finish "serve/request" Obs.End
      end

(* Serve a list of diagnose requests, returning responses in request
   order.  Prepare (cache get-or-create, trace-id assignment) runs on
   the main domain in arrival order; requests are then grouped by
   context and the groups run on the domain pool, each group
   sequentially on one worker.  Workers only measure — all accounting
   and trace stitching folds back on the main domain, in request
   order. *)
let run_batch t (requests : Protocol.diagnose list) =
  let items = List.mapi (fun idx d -> (idx, d)) requests in
  let prepared =
    List.map
      (fun (idx, d) ->
        let trace_id = t.next_trace in
        t.next_trace <- trace_id + 1;
        let enqueue = Obs.Clock.wall () in
        match context_for t d with
        | ctx -> Either.Right (idx, d, ctx, trace_id, enqueue)
        | exception Failure msg ->
            Either.Left (idx, Protocol.error ?id:d.Protocol.id msg))
      items
  in
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (function
      | Either.Left _ -> ()
      | Either.Right (idx, d, ctx, trace_id, enqueue) -> (
          let item = (idx, d, trace_id, enqueue) in
          match Hashtbl.find_opt tbl ctx.ckey with
          | Some cell -> cell := item :: !cell
          | None ->
              let cell = ref [ item ] in
              Hashtbl.add tbl ctx.ckey cell;
              order := (ctx, cell) :: !order))
    prepared;
  let groups =
    List.rev_map (fun (ctx, cell) -> (ctx, List.rev !cell)) !order |> List.rev
  in
  let registries = take_registries t (List.length groups) in
  let work = List.combine groups registries in
  let tracing = t.tracing in
  let results =
    Par.map ~jobs:t.jobs
      (fun ((ctx, reqs), registry) ->
        List.map (work_one ~tracing registry ctx) reqs)
      work
  in
  t.registries <- registries @ t.registries;
  (* group gi ran on worker [Par.worker_of ~jobs gi] (fixed round-robin
     sharding), which names the tid track its spans belong to *)
  let measured =
    List.concat
      (List.mapi
         (fun gi ms ->
           List.map (fun m -> (Par.worker_of ~jobs:t.jobs gi, m)) ms)
         results)
    |> List.sort (fun (_, a) (_, b) -> compare a.m_idx b.m_idx)
  in
  List.iter (fun (w, m) -> account t w m) measured;
  (* a request that failed left its context retired (see [work_one]);
     drop it so the next request for the shape starts cold *)
  List.iter
    (fun (_, m) ->
      if m.m_warm = None then
        Option.iter retire_context (Cache.remove t.contexts m.m_ckey))
    measured;
  let prepare_errors =
    List.filter_map
      (function Either.Left (idx, resp) -> Some (idx, resp) | _ -> None)
      prepared
  in
  List.iter
    (fun _ ->
      t.served <- t.served + 1;
      note_error t)
    prepare_errors;
  let evicted = Cache.trim t.contexts in
  List.iter (fun (_, ctx) -> retire_context ctx) evicted;
  t.evictions <- t.evictions + List.length evicted;
  prepare_errors @ List.map (fun (_, m) -> (m.m_idx, m.m_resp)) measured
  |> List.sort (fun (i, _) (j, _) -> compare i j)
  |> List.map snd

(* ---------- request dispatch ---------- *)

let mval t name = Obs.value (Obs.counter t.mobs name)

let stats_response t id =
  Protocol.ok ?id
    [
      ("op", J.String "stats");
      ("served", J.Int t.served);
      ("warm_hits", J.Int t.warm_hits);
      ("cold_misses", J.Int t.cold_misses);
      ("errors", J.Int t.errors);
      ("evictions", J.Int t.evictions);
      ("circuits", J.Int (Cache.length t.circuits));
      ("contexts", J.Int (Cache.length t.contexts));
      ("circuit_hits", J.Int (mval t "cache/circuit/hits"));
      ("circuit_misses", J.Int (mval t "cache/circuit/misses"));
      ("circuit_evictions", J.Int (mval t "cache/circuit/evictions"));
      ("context_hits", J.Int (mval t "cache/context/hits"));
      ("context_misses", J.Int (mval t "cache/context/misses"));
      ("context_evictions", J.Int (mval t "cache/context/evictions"));
    ]

let health_response t id =
  Protocol.ok ?id
    [
      ("op", J.String "health");
      ("ready", J.Bool true);
      ("live", J.Bool true);
      (* ops are answered between frames, so nothing is in flight while
         a health frame is being served *)
      ("in_flight", J.Int 0);
      ("served", J.Int t.served);
      ("errors", J.Int t.errors);
      ("circuits", J.Int (Cache.length t.circuits));
      ("circuit_capacity", J.Int (Cache.capacity t.circuits));
      ("contexts", J.Int (Cache.length t.contexts));
      ("context_capacity", J.Int (Cache.capacity t.contexts));
    ]

(* ---------- Prometheus text exposition ---------- *)

let exposition t ~times =
  let b = Buffer.create 2048 in
  let header name help typ =
    Printf.bprintf b "# HELP %s %s\n# TYPE %s %s\n" name help name typ
  in
  let label_string = function
    | [] -> ""
    | ls ->
        "{"
        ^ String.concat ","
            (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) ls)
        ^ "}"
  in
  let irow name ls v =
    Printf.bprintf b "%s%s %d\n" name (label_string ls) v
  in
  let frow name ls v =
    Printf.bprintf b "%s%s %g\n" name (label_string ls) v
  in
  let counter name help v =
    header name help "counter";
    irow name [] v
  in
  let summary_rows name ls s =
    List.iter
      (fun (q, qs) ->
        frow name (ls @ [ ("quantile", qs) ]) (Obs.Sketch.quantile s q))
      [ (0.5, "0.5"); (0.9, "0.9"); (0.99, "0.99") ];
    irow (name ^ "_sum") ls (Obs.Sketch.sum s);
    irow (name ^ "_count") ls (Obs.Sketch.count s)
  in
  let summary name help s =
    header name help "summary";
    summary_rows name [] s
  in
  let cache_gauge name help circuit_v context_v =
    header name help "gauge";
    irow name [ ("cache", "circuit") ] circuit_v;
    irow name [ ("cache", "context") ] context_v
  in
  counter "diagnose_requests_total" "Diagnose requests served" t.served;
  counter "diagnose_warm_hits_total" "Requests served from a warm context"
    t.warm_hits;
  counter "diagnose_cold_misses_total" "Requests that built a cold context"
    t.cold_misses;
  counter "diagnose_errors_total" "Requests answered with an error" t.errors;
  counter "diagnose_slow_requests_total"
    "Requests at or above the --slow-ms threshold" (mval t "serve/slow");
  counter "diagnose_incremental_reused_total"
    "Solutions answered from a context's carried answer, without search"
    (mval t "incremental/reused");
  counter "diagnose_incremental_revalidated_total"
    "Carried solutions re-checked by simulation against new tests"
    (mval t "incremental/revalidated");
  header "diagnose_cache_hits_total" "LRU cache hits" "counter";
  irow "diagnose_cache_hits_total"
    [ ("cache", "circuit") ]
    (mval t "cache/circuit/hits");
  irow "diagnose_cache_hits_total"
    [ ("cache", "context") ]
    (mval t "cache/context/hits");
  header "diagnose_cache_misses_total" "LRU cache misses" "counter";
  irow "diagnose_cache_misses_total"
    [ ("cache", "circuit") ]
    (mval t "cache/circuit/misses");
  irow "diagnose_cache_misses_total"
    [ ("cache", "context") ]
    (mval t "cache/context/misses");
  header "diagnose_cache_evictions_total" "LRU cache evictions" "counter";
  irow "diagnose_cache_evictions_total"
    [ ("cache", "circuit") ]
    (mval t "cache/circuit/evictions");
  irow "diagnose_cache_evictions_total"
    [ ("cache", "context") ]
    (mval t "cache/context/evictions");
  cache_gauge "diagnose_cache_entries" "Entries currently cached"
    (Cache.length t.circuits) (Cache.length t.contexts);
  cache_gauge "diagnose_cache_capacity" "Configured cache capacity"
    (Cache.capacity t.circuits) (Cache.capacity t.contexts);
  let ratio pfx =
    let hits = mval t (pfx ^ "/hits") and misses = mval t (pfx ^ "/misses") in
    let total = hits + misses in
    if total = 0 then 0.0 else float_of_int hits /. float_of_int total
  in
  header "diagnose_cache_hit_ratio" "hits / (hits + misses); 0 when unused"
    "gauge";
  frow "diagnose_cache_hit_ratio" [ ("cache", "circuit") ]
    (ratio "cache/circuit");
  frow "diagnose_cache_hit_ratio" [ ("cache", "context") ]
    (ratio "cache/context");
  header "diagnose_in_flight"
    "Requests currently executing (0 between frames: ops are serialized)"
    "gauge";
  irow "diagnose_in_flight" [] 0;
  summary "diagnose_request_conflicts"
    "Per-request solver conflict deltas (logical effort)" t.req_conflicts;
  summary "diagnose_request_events"
    "Per-request trace events emitted (logical effort)" t.req_events;
  if times then begin
    header "diagnose_request_latency_microseconds"
      "Wall latency enqueue->response per request" "summary";
    summary_rows "diagnose_request_latency_microseconds"
      [ ("warm", "false") ]
      t.lat_cold;
    summary_rows "diagnose_request_latency_microseconds"
      [ ("warm", "true") ]
      t.lat_warm;
    header "diagnose_queue_wait_microseconds"
      "Wall time enqueue->dispatch per request" "summary";
    summary_rows "diagnose_queue_wait_microseconds"
      [ ("warm", "false") ]
      t.queue_cold;
    summary_rows "diagnose_queue_wait_microseconds"
      [ ("warm", "true") ]
      t.queue_warm;
    summary "diagnose_gc_allocated_words"
      "GC words allocated per request (Gc.quick_stat delta)" t.gc_alloc;
    header "diagnose_requests_per_second"
      (Printf.sprintf "Requests over the last %ds window" rate_window)
      "gauge";
    frow "diagnose_requests_per_second" []
      (Obs.Rolling.rate t.req_rate ~now:t.rate_clock);
    header "diagnose_errors_per_second"
      (Printf.sprintf "Errors over the last %ds window" rate_window)
      "gauge";
    frow "diagnose_errors_per_second" []
      (Obs.Rolling.rate t.err_rate ~now:t.rate_clock)
  end;
  Buffer.contents b

let handle t (req : Protocol.request) =
  match req with
  | Protocol.Load { id; circuit } -> (
      match resolve_circuit t circuit with
      | key, c ->
          ( Protocol.ok ?id
              [
                ("op", J.String "load");
                ("circuit", J.String key);
                ("gates", J.Int (Netlist.Circuit.size c));
                ("inputs", J.Int (Netlist.Circuit.num_inputs c));
                ("outputs", J.Int (Netlist.Circuit.num_outputs c));
              ],
            true )
      | exception Failure msg ->
          note_error t;
          (Protocol.error ?id msg, true))
  | Protocol.Diagnose d -> (
      match run_batch t [ d ] with
      | [ resp ] -> (resp, true)
      | _ -> (Protocol.error ?id:d.Protocol.id "internal batch error", true))
  | Protocol.Batch { id; requests } ->
      let resps = run_batch t requests in
      ( Protocol.ok ?id
          [ ("op", J.String "batch"); ("responses", J.Arr resps) ],
        true )
  | Protocol.Stats { id } -> (stats_response t id, true)
  | Protocol.Metrics { id; times } ->
      ( Protocol.ok ?id
          [
            ("op", J.String "metrics");
            ("exposition", J.String (exposition t ~times));
          ],
        true )
  | Protocol.Health { id } -> (health_response t id, true)
  | Protocol.Shutdown { id } ->
      (Protocol.ok ?id [ ("op", J.String "shutdown") ], false)

(* ---------- session loop ---------- *)

let retire_all t =
  List.iter (fun (_, ctx) -> retire_context ctx) (Cache.items t.contexts)

let session t ic oc =
  let write j = Protocol.write_frame oc (J.to_string j) in
  let rec loop () =
    match Protocol.read_frame ic with
    | None -> 0
    | Some payload -> (
        match Protocol.parse payload with
        | Error msg ->
            note_error t;
            write (Protocol.error msg);
            loop ()
        | Ok req ->
            let resp, continue = handle t req in
            write resp;
            if continue then loop () else 0)
  in
  let code =
    match loop () with
    | code -> code
    | exception Protocol.Framing msg ->
        note_error t;
        write (Protocol.error ("framing: " ^ msg));
        2
  in
  retire_all t;
  code
