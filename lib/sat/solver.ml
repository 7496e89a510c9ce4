(* CDCL solver.  Literals are raw codes (Lit.code): 2v / 2v+1.  Variable
   assignment is -1 (undef), 0 (false) or 1 (true); the value of literal l
   under assignment a is a.(l lsr 1) lxor (l land 1) when defined.

   Clause storage is a flat int-array arena: a clause is an offset [cr]
   into [arena], whose word at [cr] packs the header
   (len lsl 2) lor (removed lsl 1) lor learnt and whose literals occupy
   arena.(cr+1 .. cr+len).  Learnt-clause activities live in the parallel
   unboxed [acts] array (indexed by the same offsets).  Watch lists are
   int vectors of (arena offset, blocker literal) pairs, so BCP walks
   contiguous memory and skips satisfied clauses without loading them.
   Removed clauses are only marked; they are dropped lazily from watch
   lists and reclaimed by [gc_arena] once waste passes half the arena.

   Invariants:
   - a clause's watched literals are at cr+1 and cr+2; the clause is
     registered in watches.(negate arena.(cr+1)) and
     watches.(negate arena.(cr+2));
   - the literal propagated by a reason clause sits at cr+1; reasons are
     arena offsets, -1 meaning "decision/assumption/unit";
   - the trail holds literals in assignment order; trail_lim.(d) is the
     trail height when decision level d+1 was opened;
   - between calls the trail is either at the root or, after a [Sat]
     answer, the answer's full trail (possibly cut back and extended by
     [add_clause]); its first levels then belong to the assumptions in
     [kept];
   - clauses of eliminated variables are out of the active set; the
     variable is restored on demand when it reappears in an added clause
     or an assumption (see [restore_var]). *)

(* growable int vector *)
type ivec = { mutable a : int array; mutable n : int }

let ivec_make () = { a = Array.make 4 0; n = 0 }

let ivec_push v x =
  if v.n = Array.length v.a then begin
    let a' = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 a' 0 v.n;
    v.a <- a'
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

let ivec_clear v = v.n <- 0

type result = Sat | Unsat

type limited_result = Solved of result | Unknown

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learned : int;
  learned_total : int;
  deleted : int;
  subsumed : int;
  strengthened : int;
  vivified : int;
  eliminated : int;
}

let zero_stats =
  {
    decisions = 0;
    propagations = 0;
    conflicts = 0;
    restarts = 0;
    learned = 0;
    learned_total = 0;
    deleted = 0;
    subsumed = 0;
    strengthened = 0;
    vivified = 0;
    eliminated = 0;
  }

let map2_stats f a b =
  {
    decisions = f a.decisions b.decisions;
    propagations = f a.propagations b.propagations;
    conflicts = f a.conflicts b.conflicts;
    restarts = f a.restarts b.restarts;
    learned = f a.learned b.learned;
    learned_total = f a.learned_total b.learned_total;
    deleted = f a.deleted b.deleted;
    subsumed = f a.subsumed b.subsumed;
    strengthened = f a.strengthened b.strengthened;
    vivified = f a.vivified b.vivified;
    eliminated = f a.eliminated b.eliminated;
  }

let add_stats = map2_stats ( + )

let stats_fields st =
  [
    ("decisions", st.decisions);
    ("propagations", st.propagations);
    ("conflicts", st.conflicts);
    ("restarts", st.restarts);
    ("learned", st.learned);
    ("learned_total", st.learned_total);
    ("deleted", st.deleted);
    ("subsumed", st.subsumed);
    ("strengthened", st.strengthened);
    ("vivified", st.vivified);
    ("eliminated", st.eliminated);
  ]

(* histograms recording per-conflict effort shape; attached on demand *)
type obs_hooks = {
  h_learnt_len : Obs.Histogram.h;
  h_backtrack : Obs.Histogram.h;
  h_conflict_gap : Obs.Histogram.h;
}

type t = {
  mutable nvars : int;
  mutable cap : int;
  mutable assigns : int array;          (* var -> -1/0/1 *)
  mutable level : int array;            (* var -> decision level *)
  mutable reason : int array;           (* var -> arena offset or -1 *)
  mutable trail : int array;
  mutable trail_n : int;
  mutable trail_lim : int array;
  mutable trail_lim_n : int;
  mutable qhead : int;
  mutable watches : ivec array;         (* lit code -> (offset, blocker) pairs *)
  mutable activity : float array;
  mutable var_inc : float;
  mutable phase : bool array;
  mutable heap : int array;             (* binary max-heap of vars *)
  mutable heap_n : int;
  mutable heap_pos : int array;         (* var -> index in heap, -1 absent *)
  mutable seen : bool array;
  mutable eliminated : bool array;      (* var -> removed by BVE *)
  mutable frozen : bool array;          (* var -> protected from BVE *)
  mutable arena : int array;
  mutable arena_n : int;
  mutable acts : float array;           (* arena offset -> activity *)
  mutable waste : int;                  (* words held by removed clauses *)
  clauses : ivec;                       (* problem-clause offsets *)
  learnts : ivec;                       (* learnt-clause offsets *)
  elim_rec : ivec;
      (* the elimination record, flat and oldest first.  An entry is
         [v; n] and then its n stored clauses, each a header word
         (len lsl 1) lor (1 if it holds literal 2v) and its len literals.
         Restoring v overwrites the entry's first word with -1. *)
  elim_offs : ivec;                     (* entry index -> offset in elim_rec *)
  mutable elim_at : int array;          (* var -> its live entry index, or -1 *)
  mutable elim_dead : int;              (* words held by restored entries *)
  mutable cla_inc : float;
  mutable max_learnts : float;
  mutable simp_interval : int;
  mutable simp_next : int;              (* conflict count of next simplify *)
  mutable ok : bool;
  mutable model_valid : bool;
  mutable final_model : bool array;     (* reused while nvars holds *)
  mutable model_pending : int;
      (* entries of [elim_rec] at the last [Sat] answer, not yet
         replayed into [final_model] (0 once replayed): most reads are of
         active variables, so the replay waits for the first read of an
         eliminated one *)
  mutable s_decisions : int;
  mutable s_propagations : int;
  mutable s_conflicts : int;
  mutable s_restarts : int;
  mutable s_learned_total : int;
  mutable s_deleted : int;
  mutable s_subsumed : int;
  mutable s_strengthened : int;
  mutable s_vivified : int;
  mutable s_eliminated : int;
  analyze_buf : ivec;                   (* scratch for conflict analysis *)
  min_stack : ivec;                     (* DFS stack for clause minimization *)
  min_clear : ivec;                     (* seen marks to undo after minimization *)
  mutable hooks : obs_hooks option;
  mutable last_conflict_props : int;
  mutable proof : Proof.t option;
  mutable conflict_core : int list option; (* lit codes; after Unsat *)
  mutable kept : int array;             (* assumptions of the kept trail *)
  mutable deadline : float;
      (* the running call's wall deadline: infinity outside a call, and
         neg_infinity once it has passed *)
  mutable ticks : int;                  (* deadline polls *)
}

let create () =
  {
    nvars = 0;
    cap = 0;
    assigns = [||];
    level = [||];
    reason = [||];
    trail = [||];
    trail_n = 0;
    trail_lim = [||];
    trail_lim_n = 0;
    qhead = 0;
    watches = [||];
    activity = [||];
    var_inc = 1.0;
    phase = [||];
    heap = [||];
    heap_n = 0;
    heap_pos = [||];
    seen = [||];
    eliminated = [||];
    frozen = [||];
    arena = Array.make 1024 0;
    arena_n = 0;
    acts = Array.make 1024 0.0;
    waste = 0;
    clauses = ivec_make ();
    learnts = ivec_make ();
    elim_rec = ivec_make ();
    elim_offs = ivec_make ();
    elim_at = [||];
    elim_dead = 0;
    cla_inc = 1.0;
    max_learnts = 1000.0;
    simp_interval = 1000;
    simp_next = 0;  (* the first round runs before the first search *)
    ok = true;
    model_valid = false;
    final_model = [||];
    model_pending = 0;
    s_decisions = 0;
    s_propagations = 0;
    s_conflicts = 0;
    s_restarts = 0;
    s_learned_total = 0;
    s_deleted = 0;
    s_subsumed = 0;
    s_strengthened = 0;
    s_vivified = 0;
    s_eliminated = 0;
    analyze_buf = ivec_make ();
    min_stack = ivec_make ();
    min_clear = ivec_make ();
    hooks = None;
    last_conflict_props = 0;
    proof = None;
    conflict_core = None;
    kept = [||];
    deadline = infinity;
    ticks = 0;
  }

let set_proof s p = s.proof <- p

(* ---------- arena ---------- *)

let c_len s cr = s.arena.(cr) lsr 2
let c_learnt s cr = s.arena.(cr) land 1 = 1
let c_removed s cr = s.arena.(cr) land 2 <> 0
let c_lit s cr k = s.arena.(cr + 1 + k)
let c_codes s cr = Array.init (c_len s cr) (fun k -> s.arena.(cr + 1 + k))

let mark_removed s cr =
  if not (c_removed s cr) then begin
    s.arena.(cr) <- s.arena.(cr) lor 2;
    s.waste <- s.waste + c_len s cr + 1
  end

let alloc_clause s codes ~learnt =
  let len = Array.length codes in
  let need = s.arena_n + len + 1 in
  if need > Array.length s.arena then begin
    let cap = max need (2 * Array.length s.arena) in
    let a' = Array.make cap 0 in
    Array.blit s.arena 0 a' 0 s.arena_n;
    s.arena <- a';
    let f' = Array.make cap 0.0 in
    Array.blit s.acts 0 f' 0 s.arena_n;
    s.acts <- f'
  end;
  let cr = s.arena_n in
  s.arena.(cr) <- (len lsl 2) lor (if learnt then 1 else 0);
  Array.blit codes 0 s.arena (cr + 1) len;
  s.acts.(cr) <- 0.0;
  s.arena_n <- need;
  cr

let proof_add s codes =
  match s.proof with None -> () | Some p -> Proof.add_codes p codes

let proof_delete s codes =
  match s.proof with None -> () | Some p -> Proof.delete_codes p codes

let attach_obs ?(prefix = "sat") s obs =
  s.hooks <-
    Some
      {
        h_learnt_len = Obs.histogram obs (prefix ^ "/learnt_len");
        h_backtrack = Obs.histogram obs (prefix ^ "/backtrack");
        h_conflict_gap = Obs.histogram obs (prefix ^ "/conflict_gap");
      }

let detach_obs s = s.hooks <- None

let num_vars s = s.nvars

(* ---------- variable order heap (max-heap on activity) ---------- *)

let heap_less s v w = s.activity.(v) > s.activity.(w)

let heap_swap s i j =
  let v = s.heap.(i) and w = s.heap.(j) in
  s.heap.(i) <- w;
  s.heap.(j) <- v;
  s.heap_pos.(w) <- i;
  s.heap_pos.(v) <- j

let rec heap_up s i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_less s s.heap.(i) s.heap.(parent) then begin
      heap_swap s i parent;
      heap_up s parent
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_n && heap_less s s.heap.(l) s.heap.(!best) then best := l;
  if r < s.heap_n && heap_less s s.heap.(r) s.heap.(!best) then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap.(s.heap_n) <- v;
    s.heap_pos.(v) <- s.heap_n;
    s.heap_n <- s.heap_n + 1;
    heap_up s s.heap_pos.(v)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_n <- s.heap_n - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_n > 0 then begin
    let last = s.heap.(s.heap_n) in
    s.heap.(0) <- last;
    s.heap_pos.(last) <- 0;
    heap_down s 0
  end;
  v

let heap_notify_increase s v =
  let i = s.heap_pos.(v) in
  if i >= 0 then heap_up s i

(* ---------- variable allocation ---------- *)

let grow_to s n =
  if n > s.cap then begin
    let cap = max 16 (max n (2 * s.cap)) in
    let copy_int old fill =
      let a = Array.make cap fill in
      Array.blit old 0 a 0 (Array.length old);
      a
    in
    s.assigns <- copy_int s.assigns (-1);
    s.level <- copy_int s.level 0;
    s.reason <- copy_int s.reason (-1);
    s.trail <- copy_int s.trail 0;
    s.trail_lim <- copy_int s.trail_lim 0;
    s.heap <- copy_int s.heap 0;
    s.heap_pos <- copy_int s.heap_pos (-1);
    s.elim_at <- copy_int s.elim_at (-1);
    let copy_f old =
      let a = Array.make cap 0.0 in
      Array.blit old 0 a 0 (Array.length old);
      a
    in
    s.activity <- copy_f s.activity;
    let copy_b old =
      let a = Array.make cap false in
      Array.blit old 0 a 0 (Array.length old);
      a
    in
    s.phase <- copy_b s.phase;
    s.seen <- copy_b s.seen;
    s.eliminated <- copy_b s.eliminated;
    s.frozen <- copy_b s.frozen;
    let watches = Array.make (2 * cap) (ivec_make ()) in
    Array.blit s.watches 0 watches 0 (Array.length s.watches);
    for i = Array.length s.watches to (2 * cap) - 1 do
      watches.(i) <- ivec_make ()
    done;
    s.watches <- watches;
    s.cap <- cap
  end

let new_var s =
  let v = s.nvars in
  grow_to s (v + 1);
  s.nvars <- v + 1;
  s.assigns.(v) <- -1;
  s.heap_pos.(v) <- -1;
  heap_insert s v;
  v

let ensure_vars s n = while s.nvars < n do ignore (new_var s) done

(* Has the running call's deadline passed?  The wall clock is read once
   every 1,024 polls; once it has passed the answer stays yes until the
   call ends.  Search and inprocessing poll the same counter. *)
let past_deadline s =
  s.deadline = neg_infinity
  || s.deadline < infinity
     && (s.ticks <- s.ticks + 1;
         s.ticks land 1023 = 0 && Obs.Clock.wall () >= s.deadline)
     && begin
          s.deadline <- neg_infinity;
          true
        end

(* ---------- assignment primitives ---------- *)

let lit_value s l =
  let a = s.assigns.(l lsr 1) in
  if a < 0 then -1 else a lxor (l land 1)

let decision_level s = s.trail_lim_n

let enqueue s l reason =
  let v = l lsr 1 in
  s.assigns.(v) <- (l land 1) lxor 1;
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.trail.(s.trail_n) <- l;
  s.trail_n <- s.trail_n + 1

let new_decision_level s =
  s.trail_lim.(s.trail_lim_n) <- s.trail_n;
  s.trail_lim_n <- s.trail_lim_n + 1

let cancel_until s lvl =
  if decision_level s > lvl then begin
    for i = s.trail_n - 1 downto s.trail_lim.(lvl) do
      let l = s.trail.(i) in
      let v = l lsr 1 in
      s.phase.(v) <- l land 1 = 0;
      s.assigns.(v) <- -1;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    s.trail_n <- s.trail_lim.(lvl);
    s.qhead <- s.trail_n;
    s.trail_lim_n <- lvl
  end

(* ---------- activities ---------- *)

let var_decay = 0.95
let clause_decay = 0.999

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  heap_notify_increase s v

let var_decay_activities s = s.var_inc <- s.var_inc /. var_decay

let clause_bump s cr =
  s.acts.(cr) <- s.acts.(cr) +. s.cla_inc;
  if s.acts.(cr) > 1e20 then begin
    for i = 0 to s.learnts.n - 1 do
      let r = s.learnts.a.(i) in
      s.acts.(r) <- s.acts.(r) *. 1e-20
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let clause_decay_activities s = s.cla_inc <- s.cla_inc /. clause_decay

(* ---------- clause attachment ---------- *)

(* A watch entry is the pair (clause offset, blocker literal) stored as
   two consecutive ints; the blocker — initially the other watched
   literal — lets BCP skip satisfied clauses without touching the arena.
   Binary clauses store [lnot cr] (negative) instead of the offset: the
   blocker then IS the whole rest of the clause, so BCP resolves the
   entry arena-free.  Because the binary fast path never reads the
   removed bit, a removed binary must leave the watch lists eagerly
   (see the detach calls at the simplification removal sites); clauses
   satisfied at the root are the one safe exception — their surviving
   watch can only be reached through a false blocker, which a root-true
   literal never is. *)
let attach s cr =
  let l0 = c_lit s cr 0 and l1 = c_lit s cr 1 in
  let tag = if c_len s cr = 2 then lnot cr else cr in
  let w0 = s.watches.(l0 lxor 1) in
  ivec_push w0 tag;
  ivec_push w0 l1;
  let w1 = s.watches.(l1 lxor 1) in
  ivec_push w1 tag;
  ivec_push w1 l0

(* explicit (eager) watch removal; only used off the hot path *)
let watch_remove s l cr =
  let ws = s.watches.(l) in
  let enc = lnot cr in
  let i = ref 0 in
  while !i < ws.n && ws.a.(!i) <> cr && ws.a.(!i) <> enc do
    i := !i + 2
  done;
  if !i < ws.n then begin
    for k = !i to ws.n - 3 do
      ws.a.(k) <- ws.a.(k + 2)
    done;
    ws.n <- ws.n - 2
  end

let detach s cr =
  watch_remove s (c_lit s cr 0 lxor 1) cr;
  watch_remove s (c_lit s cr 1 lxor 1) cr

(* ---------- propagation ---------- *)

(* returns the conflicting clause's offset, or -1.  No clause is
   allocated while propagating, so [arena] and [assigns] can be cached;
   the freshly watched literal is never false, so its watch list is
   never the one being traversed. *)
let propagate s =
  let confl = ref (-1) in
  let arena = s.arena in
  let assigns = s.assigns in
  while !confl < 0 && s.qhead < s.trail_n do
    let p = Array.unsafe_get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.s_propagations <- s.s_propagations + 1;
    let ws = Array.unsafe_get s.watches p in
    let wa = ws.a in
    let n = ws.n in
    let j = ref 0 in
    let i = ref 0 in
    while !i < n do
      let cr = Array.unsafe_get wa !i in
      let blocker = Array.unsafe_get wa (!i + 1) in
      i := !i + 2;
      let bv = Array.unsafe_get assigns (blocker lsr 1) in
      (* bv is -1/0/1, so bv lxor bit = 1 already implies bv >= 0 *)
      if bv lxor (blocker land 1) = 1 then begin
        (* blocker already true: clause satisfied, arena never read *)
        Array.unsafe_set wa !j cr;
        Array.unsafe_set wa (!j + 1) blocker;
        j := !j + 2
      end
      else if cr < 0 then begin
        (* binary clause: the blocker is the whole rest of the clause *)
        Array.unsafe_set wa !j cr;
        Array.unsafe_set wa (!j + 1) blocker;
        j := !j + 2;
        if !confl < 0 then begin
          let bcr = lnot cr in
          if bv < 0 then begin
            (* keep the implied literal at slot 0 (reason invariant) *)
            (if Array.unsafe_get arena (bcr + 1) <> blocker then begin
               Array.unsafe_set arena (bcr + 1) blocker;
               Array.unsafe_set arena (bcr + 2) (p lxor 1)
             end);
            enqueue s blocker bcr
          end
          else confl := bcr
        end
      end
      else begin
        let hdr = Array.unsafe_get arena cr in
        if hdr land 2 <> 0 then () (* removed: lazily drop the watch *)
        else if !confl >= 0 then begin
          Array.unsafe_set wa !j cr;
          Array.unsafe_set wa (!j + 1) blocker;
          j := !j + 2
        end
        else begin
          let false_lit = p lxor 1 in
          (if Array.unsafe_get arena (cr + 1) = false_lit then begin
             Array.unsafe_set arena (cr + 1) (Array.unsafe_get arena (cr + 2));
             Array.unsafe_set arena (cr + 2) false_lit
           end);
          let first = Array.unsafe_get arena (cr + 1) in
          let v0 = Array.unsafe_get assigns (first lsr 1) in
          if v0 lxor (first land 1) = 1 then begin
            Array.unsafe_set wa !j cr;
            Array.unsafe_set wa (!j + 1) first;
            j := !j + 2
          end
          else begin
            let len = hdr lsr 2 in
            let k = ref 2 in
            let continue_ = ref true in
            while !continue_ && !k < len do
              let l = Array.unsafe_get arena (cr + 1 + !k) in
              (* any non-false literal will do: unset gives -1/-2, true gives 1 *)
              if
                Array.unsafe_get assigns (l lsr 1) lxor (l land 1) <> 0
              then continue_ := false
              else incr k
            done;
            if !k < len then begin
              Array.unsafe_set arena (cr + 2)
                (Array.unsafe_get arena (cr + 1 + !k));
              Array.unsafe_set arena (cr + 1 + !k) false_lit;
              let ws' =
                Array.unsafe_get s.watches
                  (Array.unsafe_get arena (cr + 2) lxor 1)
              in
              ivec_push ws' cr;
              ivec_push ws' first
            end
            else begin
              Array.unsafe_set wa !j cr;
              Array.unsafe_set wa (!j + 1) first;
              j := !j + 2;
              if v0 < 0 then enqueue s first cr else confl := cr
            end
          end
        end
      end
    done;
    ws.n <- !j
  done;
  !confl

(* ---------- conflict analysis (first UIP) ---------- *)

let analyze s confl =
  let arena = s.arena and seen = s.seen and level = s.level in
  let buf = s.analyze_buf in
  ivec_clear buf;
  let dl = decision_level s in
  let path = ref 0 in
  let p = ref (-1) in
  let c = ref confl in
  let index = ref (s.trail_n - 1) in
  let stop = ref false in
  while not !stop do
    let cr = !c in
    if Array.unsafe_get arena cr land 1 = 1 then clause_bump s cr;
    let len = Array.unsafe_get arena cr lsr 2 in
    let start = if !p < 0 then 0 else 1 in
    for k = start to len - 1 do
      let q = Array.unsafe_get arena (cr + 1 + k) in
      let v = q lsr 1 in
      if
        (not (Array.unsafe_get seen v)) && Array.unsafe_get level v > 0
      then begin
        Array.unsafe_set seen v true;
        var_bump s v;
        if Array.unsafe_get level v >= dl then incr path
        else ivec_push buf q
      end
    done;
    while
      not (Array.unsafe_get seen (Array.unsafe_get s.trail !index lsr 1))
    do
      decr index
    done;
    let pl = s.trail.(!index) in
    decr index;
    p := pl;
    seen.(pl lsr 1) <- false;
    c := s.reason.(pl lsr 1);
    decr path;
    if !path = 0 then stop := true
  done;
  (* recursive clause minimization: a literal is redundant if every path
     through its reason graph terminates in marked clause literals or the
     root level without leaving the clause's decision levels (the
     abstract-level mask is a cheap early exit for the latter).  Marks set
     on a successful probe stay in [seen] as memoization for later probes;
     a failed probe rolls back only its own marks. *)
  let clear0 = s.min_clear in
  ivec_clear clear0;
  let abstract_levels = ref 0 in
  for k = 0 to buf.n - 1 do
    abstract_levels :=
      !abstract_levels
      lor (1 lsl (Array.unsafe_get level (buf.a.(k) lsr 1) land 31))
  done;
  let abstract_levels = !abstract_levels in
  let redundant q0 =
    s.reason.(q0 lsr 1) >= 0
    && begin
         let stack = s.min_stack in
         ivec_clear stack;
         ivec_push stack q0;
         let top = clear0.n in
         let ok = ref true in
         while !ok && stack.n > 0 do
           stack.n <- stack.n - 1;
           let cr = s.reason.(Array.unsafe_get stack.a stack.n lsr 1) in
           let len = Array.unsafe_get arena cr lsr 2 in
           let k = ref 1 in
           while !ok && !k < len do
             let l = Array.unsafe_get arena (cr + 1 + !k) in
             let v = l lsr 1 in
             if
               (not (Array.unsafe_get seen v))
               && Array.unsafe_get level v > 0
             then
               if
                 s.reason.(v) >= 0
                 && 1 lsl (Array.unsafe_get level v land 31)
                    land abstract_levels
                    <> 0
               then begin
                 Array.unsafe_set seen v true;
                 ivec_push stack l;
                 ivec_push clear0 l
               end
               else begin
                 for j = top to clear0.n - 1 do
                   seen.(clear0.a.(j) lsr 1) <- false
                 done;
                 clear0.n <- top;
                 ok := false
               end;
             incr k
           done
         done;
         !ok
       end
  in
  (* the learnt clause keeps the literals in reverse push order (as the
     list-prepend construction did); survivors are marked first so the
     reason-side [seen] marks are intact throughout minimization *)
  let m = buf.n in
  let keep = Array.make (max 1 m) false in
  let nkeep = ref 0 in
  for k = 0 to m - 1 do
    if not (redundant buf.a.(k)) then begin
      keep.(k) <- true;
      incr nkeep
    end
  done;
  let out = Array.make (!nkeep + 1) 0 in
  out.(0) <- !p lxor 1;
  let pos = ref 1 in
  for k = m - 1 downto 0 do
    if keep.(k) then begin
      out.(!pos) <- buf.a.(k);
      incr pos
    end
  done;
  (* clear seen for every var marked during analysis or minimization *)
  for k = 0 to m - 1 do
    seen.(buf.a.(k) lsr 1) <- false
  done;
  for k = 0 to clear0.n - 1 do
    seen.(clear0.a.(k) lsr 1) <- false
  done;
  seen.(!p lsr 1) <- false;
  (* move a literal of the highest remaining level to slot 1 *)
  let blevel =
    if Array.length out <= 1 then 0
    else begin
      let best = ref 1 in
      for k = 2 to Array.length out - 1 do
        if s.level.(out.(k) lsr 1) > s.level.(out.(!best) lsr 1) then best := k
      done;
      let t = out.(1) in
      out.(1) <- out.(!best);
      out.(!best) <- t;
      s.level.(out.(1) lsr 1)
    end
  in
  (out, blevel)

(* ---------- learned clause database reduction ---------- *)

let locked s cr =
  c_len s cr > 0
  &&
  let l0 = c_lit s cr 0 in
  let v = l0 lsr 1 in
  s.reason.(v) = cr && s.assigns.(v) >= 0 && lit_value s l0 = 1

let reduce_db s =
  let ls = Array.sub s.learnts.a 0 s.learnts.n in
  Array.sort (fun x y -> Float.compare s.acts.(x) s.acts.(y)) ls;
  ivec_clear s.learnts;
  let limit = Array.length ls / 2 in
  Array.iteri
    (fun i cr ->
      (* entries promoted to problem clauses by subsumption just leave
         the learnt list: they live on in [clauses] and must never be
         deleted *)
      if (not (c_removed s cr)) && c_learnt s cr then
        if locked s cr || c_len s cr <= 2 || i >= limit then
          ivec_push s.learnts cr
        else begin
          s.s_deleted <- s.s_deleted + 1;
          proof_delete s (c_codes s cr);
          mark_removed s cr
        end)
    ls

(* ---------- arena compaction ---------- *)

(* Copy live clauses into a fresh arena (level 0 only).  Forwarding
   offsets are written over the old headers, which is safe because every
   root reason is a locked — hence live and just-moved — clause.  Watch
   lists are rebuilt from scratch in database order. *)
let gc_arena s =
  let old = s.arena and old_acts = s.acts in
  let live = s.arena_n - s.waste in
  let cap = max 1024 (2 * live) in
  let na = Array.make cap 0 in
  let nf = Array.make cap 0.0 in
  let n = ref 0 in
  let move vec =
    let keep = ivec_make () in
    for i = 0 to vec.n - 1 do
      let cr = vec.a.(i) in
      if old.(cr) land 2 = 0 then begin
        let len = old.(cr) lsr 2 in
        let cr' = !n in
        na.(cr') <- old.(cr);
        Array.blit old (cr + 1) na (cr' + 1) len;
        nf.(cr') <- old_acts.(cr);
        n := !n + len + 1;
        old.(cr) <- cr';
        ivec_push keep cr'
      end
    done;
    vec.a <- keep.a;
    vec.n <- keep.n
  in
  move s.clauses;
  move s.learnts;
  for i = 0 to s.trail_n - 1 do
    let v = s.trail.(i) lsr 1 in
    if s.reason.(v) >= 0 then s.reason.(v) <- old.(s.reason.(v))
  done;
  s.arena <- na;
  s.acts <- nf;
  s.arena_n <- !n;
  s.waste <- 0;
  for l = 0 to (2 * s.cap) - 1 do
    ivec_clear s.watches.(l)
  done;
  for i = 0 to s.clauses.n - 1 do
    attach s s.clauses.a.(i)
  done;
  for i = 0 to s.learnts.n - 1 do
    attach s s.learnts.a.(i)
  done

(* ---------- clause addition / variable restoration ---------- *)

(* Install a clause whose derivation the proof sink has already seen (a
   stored input clause being restored, a BVE resolvent, or a
   strengthened clause whose Add/Delete pair was just emitted).
   Normalizes against the root assignment — inprocessing propagation may
   have assigned some of its literals since the codes were computed, and
   a watched root-false literal would never be woken again.  Emits no
   Add step for the clause as given.  A clause shortened by dropping
   root-false literals is logged as Add-shortened, Delete-original, so a
   later deletion names a clause the checker holds; a clause reduced to
   a unit is never stored (so never deleted), and its unit and a root
   conflict (the empty clause) are RUP at that point.  When [occs] is
   given, the fresh clause joins the occurrence lists so later passes
   see the complete live database. *)
let install_simplified s codes ~learnt ~act occs =
  if s.ok then begin
    let sat = ref false in
    let lits = ref [] in
    Array.iter
      (fun l ->
        match lit_value s l with
        | 1 -> sat := true
        | 0 -> ()
        | _ -> lits := l :: !lits)
      codes;
    if not !sat then
      match List.rev !lits with
      | [] ->
          s.ok <- false;
          proof_add s [||]
      | [ l ] ->
          enqueue s l (-1);
          if propagate s >= 0 then begin
            s.ok <- false;
            proof_add s [||]
          end
      | lits ->
          let arr = Array.of_list lits in
          if Array.length arr < Array.length codes then begin
            proof_add s arr;
            proof_delete s codes
          end;
          let cr = alloc_clause s arr ~learnt in
          s.acts.(cr) <- act;
          ivec_push (if learnt then s.learnts else s.clauses) cr;
          attach s cr;
          (match occs with
          | None -> ()
          | Some occs -> Array.iter (fun l -> ivec_push occs.(l) cr) arr)
  end

let install_permanent s codes =
  install_simplified s codes ~learnt:false ~act:0.0 None

(* undo a variable elimination: reactivate the stored clauses, first
   restoring (recursively) any variable eliminated after this one that
   they mention.  The entry is marked restored in place, and [bve_pass]
   drops such entries once they hold half the record.  No proof steps:
   the checker never saw the stored clauses leave its database. *)
let rec restore_var s v =
  if s.eliminated.(v) then begin
    s.eliminated.(v) <- false;
    let r = s.elim_rec in
    let o = s.elim_offs.a.(s.elim_at.(v)) in
    s.elim_at.(v) <- -1;
    r.a.(o) <- -1;
    if s.assigns.(v) < 0 then heap_insert s v;
    (* restoring marks entries only, so the offsets stay put *)
    let p = ref (o + 2) in
    for _ = 1 to r.a.(o + 1) do
      let len = r.a.(!p) lsr 1 in
      let codes = Array.sub r.a (!p + 1) len in
      p := !p + 1 + len;
      Array.iter
        (fun l ->
          let w = l lsr 1 in
          if s.eliminated.(w) then restore_var s w)
        codes;
      install_permanent s codes
    done;
    s.elim_dead <- s.elim_dead + (!p - o)
  end

(* drop the restored entries from the elimination record, keeping the
   live ones in order *)
let compact_elim s =
  let r = s.elim_rec and offs = s.elim_offs in
  let w = ref 0 and j = ref 0 in
  for i = 0 to offs.n - 1 do
    let o = offs.a.(i) in
    let stop = if i + 1 < offs.n then offs.a.(i + 1) else r.n in
    let v = r.a.(o) in
    if v >= 0 then begin
      Array.blit r.a o r.a !w (stop - o);
      offs.a.(!j) <- !w;
      s.elim_at.(v) <- !j;
      w := !w + (stop - o);
      incr j
    end
  done;
  r.n <- !w;
  offs.n <- !j;
  s.elim_dead <- 0

exception Trivial_clause

(* Add a clause between calls without giving up the kept trail.  The
   clause is normalised against the root only: a literal false at a
   level above 0 stays in it.  Its literals are ordered non-false first,
   then false by decreasing level, and the trail is cut back only as far
   as the clause needs:
   - two non-false literals: watch them, keep the trail;
   - one: it is implied at the highest false literal's level, so cut
     back to that level and enqueue it (unless it is already true at or
     below that level);
   - none: cut back to the second-highest level and enqueue the top
     literal, or, when the two highest levels are equal, one level
     below them, where both are unassigned.
   At the root every literal is non-false, so the clause is just
   attached.  Units, the empty clause and clauses over eliminated
   variables take the root. *)
let add_clause_codes s codes =
  if s.ok then begin
    s.model_valid <- false;
    List.iter (fun l -> ensure_vars s ((l lsr 1) + 1)) codes;
    if List.exists (fun l -> s.eliminated.(l lsr 1)) codes then begin
      cancel_until s 0;
      List.iter
        (fun l ->
          let v = l lsr 1 in
          if s.eliminated.(v) then restore_var s v)
        codes
    end;
    let root_value l =
      if s.level.(l lsr 1) = 0 then lit_value s l else -1
    in
    (* normalize: sort, dedupe, drop root-false lits, detect tautology and
       root-true lits *)
    match
      let sorted = List.sort_uniq Int.compare codes in
      (* complementary codes 2v / 2v+1 are adjacent once sorted, so one
         next-element check finds every tautology *)
      let rec clean acc = function
        | [] -> List.rev acc
        | l :: rest ->
            (match rest with
            | l' :: _ when l' = l lxor 1 -> raise Trivial_clause
            | _ -> ());
            (match root_value l with
            | 1 -> raise Trivial_clause
            | 0 -> clean acc rest
            | _ -> clean (l :: acc) rest)
      in
      let lits = clean [] sorted in
      (lits, List.compare_lengths lits sorted < 0)
    with
    | exception Trivial_clause -> ()
    | [], _ ->
        cancel_until s 0;
        s.ok <- false;
        proof_add s [||]
    | [ l ], _ ->
        cancel_until s 0;
        enqueue s l (-1);
        if propagate s >= 0 then begin
          s.ok <- false;
          proof_add s [||]
        end
    | lits, shortened ->
        (* the proof holds the clause as given: one stored without its
           root-false literals enters it too (RUP by the root units), so
           an inprocessing deletion names a clause the checker holds *)
        if shortened then proof_add s (Array.of_list lits);
        let rank l = if lit_value s l = 0 then s.level.(l lsr 1) else max_int in
        let codes =
          Array.of_list
            (List.stable_sort (fun a b -> Int.compare (rank b) (rank a)) lits)
        in
        let cr = alloc_clause s codes ~learnt:false in
        ivec_push s.clauses cr;
        attach s cr;
        (* l1 false: the clause is unit at l1's level, or open one level
           below it when l0 is false at that same level *)
        let l0 = codes.(0) and l1 = codes.(1) in
        let lvl1 = s.level.(l1 lsr 1) in
        let lvl0 = s.level.(l0 lsr 1) in
        if lit_value s l1 = 0 then
          match lit_value s l0 with
          | 0 when lvl0 = lvl1 -> cancel_until s (lvl1 - 1)
          | 1 when lvl0 <= lvl1 -> ()
          | _ ->
              cancel_until s lvl1;
              enqueue s l0 cr
  end

let add_clause s lits = add_clause_codes s (List.map Lit.code lits)

let add_cnf s f =
  ensure_vars s f.Cnf.num_vars;
  List.iter (fun c -> add_clause s c) (Cnf.clauses f)

(* ---------- inprocessing ---------- *)

(* All passes run at decision level 0 with the trail at fixpoint.  Every
   derived clause enters the proof before the clause it replaces is
   deleted, and no clause locked as a root reason is ever deleted from
   the proof, so the strict checker's root trail never loses a literal
   it cannot re-derive.  Subsumption, vivification and BVE poll the
   running call's deadline between steps and abandon the rest of the
   round once it has passed. *)

(* drop clauses satisfied at the root.  Learnt clauses leave the proof;
   problem clauses stay in it (they are permanently satisfied, so the
   checker keeping them is sound and [model_ok] coverage is preserved). *)
let remove_satisfied_pass s =
  let pass vec =
    for i = 0 to vec.n - 1 do
      let cr = vec.a.(i) in
      if (not (c_removed s cr)) && not (locked s cr) then begin
        let len = c_len s cr in
        let sat = ref false in
        for k = 0 to len - 1 do
          if lit_value s (c_lit s cr k) = 1 then sat := true
        done;
        if !sat then begin
          if c_learnt s cr then begin
            s.s_deleted <- s.s_deleted + 1;
            proof_delete s (c_codes s cr)
          end;
          mark_removed s cr
        end
      end
    done
  in
  pass s.clauses;
  pass s.learnts

(* occurrence lists over the live database *)
let build_occs s =
  let occs = Array.make (2 * s.cap) (ivec_make ()) in
  for l = 0 to (2 * s.cap) - 1 do
    occs.(l) <- ivec_make ()
  done;
  let scan vec =
    for i = 0 to vec.n - 1 do
      let cr = vec.a.(i) in
      if not (c_removed s cr) then
        for k = 0 to c_len s cr - 1 do
          ivec_push occs.(c_lit s cr k) cr
        done
    done
  in
  scan s.clauses;
  scan s.learnts;
  occs

(* replace [old_cr] by its strengthened version [out] (one literal
   fewer); Add-new-before-Delete-old so the checker can justify [out]
   while the original is still live *)
let commit_strengthened s occs old_cr out =
  s.s_strengthened <- s.s_strengthened + 1;
  proof_add s out;
  proof_delete s (c_codes s old_cr);
  let learnt = c_learnt s old_cr in
  let act = s.acts.(old_cr) in
  (* binary watches skip the removed bit: detach eagerly *)
  if c_len s old_cr = 2 then detach s old_cr;
  mark_removed s old_cr;
  install_simplified s out ~learnt ~act (Some occs)

(* backward subsumption and self-subsuming resolution.  For each clause
   C (the subsumer) walk the occurrence list of its rarest literal; a
   candidate D with every literal of C present is subsumed, one literal
   present negated means D can be strengthened by resolving with C. *)
let subsumption_pass s occs =
  let smark = Bytes.make (2 * s.cap) '\000' in
  let subsume_with cr =
    if (not (c_removed s cr)) && s.ok then begin
      let len = c_len s cr in
      for k = 0 to len - 1 do
        Bytes.set smark (c_lit s cr k) '\001'
      done;
      (* rarest literal's occurrence list *)
      let best = ref (c_lit s cr 0) in
      for k = 1 to len - 1 do
        let l = c_lit s cr k in
        if occs.(l).n < occs.(!best).n then best := l
      done;
      (* candidates with every literal of C live in occ(best); candidates
         strengthenable on best itself contain its negation instead and
         live only in occ(not best) — both lists must be walked, or a
         clause whose flipped literal is C's rarest is never found *)
      let scan_candidates cand =
      let i = ref 0 in
      while !i < cand.n && not (past_deadline s) do
        let dr = cand.a.(!i) in
        incr i;
        if
          dr <> cr && s.ok
          && (not (c_removed s dr))
          && (not (c_removed s cr))
          && c_len s dr >= len
          && not (locked s dr)
        then begin
          let dlen = c_len s dr in
          let matched = ref 0 in
          let flips = ref 0 in
          let flip = ref (-1) in
          for k = 0 to dlen - 1 do
            let l = c_lit s dr k in
            if Bytes.get smark l = '\001' then incr matched
            else if Bytes.get smark (l lxor 1) = '\001' then begin
              incr flips;
              flip := l
            end
          done;
          if !matched = len && !flips = 0 then begin
            (* C subsumes D; a learnt subsumer of a problem clause is
               promoted so the model-relevant clause survives later
               learnt-DB deletion *)
            s.s_subsumed <- s.s_subsumed + 1;
            if c_learnt s cr && not (c_learnt s dr) then begin
              s.arena.(cr) <- s.arena.(cr) land lnot 1;
              ivec_push s.clauses cr
            end;
            if c_learnt s dr then s.s_deleted <- s.s_deleted + 1;
            proof_delete s (c_codes s dr);
            (* binary watches skip the removed bit: detach eagerly *)
            if c_len s dr = 2 then detach s dr;
            mark_removed s dr
          end
          else if !matched = len - 1 && !flips = 1 then begin
            (* self-subsumption: strengthen D by dropping !flip *)
            let out =
              Array.of_list
                (List.filter
                   (fun l -> l <> !flip)
                   (Array.to_list (c_codes s dr)))
            in
            commit_strengthened s occs dr out
          end
        end
      done
      in
      scan_candidates occs.(!best);
      scan_candidates occs.(!best lxor 1);
      for k = 0 to len - 1 do
        Bytes.set smark (c_lit s cr k) '\000'
      done
    end
  in
  let subsume_all vec =
    let crs = Array.sub vec.a 0 vec.n in
    let i = ref 0 in
    while !i < Array.length crs && not (past_deadline s) do
      subsume_with crs.(!i);
      incr i
    done
  in
  subsume_all s.clauses;
  subsume_all s.learnts

(* vivification: re-derive a learnt clause literal by literal under
   trial assignments; a conflict or an implied literal part-way through
   yields a shorter clause.  The clause is detached during probing so it
   cannot justify itself. *)
let vivify_one s occs cr =
  let codes = c_codes s cr in
  let len = Array.length codes in
  detach s cr;
  new_decision_level s;
  let kept = ref [] in
  let stop = ref false in
  let k = ref 0 in
  while (not !stop) && !k < len do
    let l = codes.(!k) in
    (match lit_value s l with
    | 1 ->
        kept := l :: !kept;
        stop := true
    | 0 -> () (* implied false: drop *)
    | _ ->
        kept := l :: !kept;
        enqueue s (l lxor 1) (-1);
        if propagate s >= 0 then stop := true);
    incr k
  done;
  cancel_until s 0;
  let out = Array.of_list (List.rev !kept) in
  if Array.length out < len then begin
    s.s_vivified <- s.s_vivified + 1;
    proof_add s out;
    proof_delete s codes;
    let act = s.acts.(cr) in
    mark_removed s cr;
    install_simplified s out ~learnt:true ~act (Some occs)
  end
  else attach s cr

let vivify_pass s occs =
  let props0 = s.s_propagations in
  let snapshot = Array.sub s.learnts.a 0 s.learnts.n in
  let i = ref 0 in
  while
    !i < Array.length snapshot
    && s.ok
    && s.s_propagations - props0 < 30_000
    && not (past_deadline s)
  do
    let cr = snapshot.(!i) in
    incr i;
    if (not (c_removed s cr)) && (not (locked s cr)) && c_len s cr >= 3 then
      vivify_one s occs cr
  done

(* bounded variable elimination.  A variable goes if it is unassigned,
   not frozen (an assumption of the running call) and the non-trivial
   resolvents of its positive and negative occurrences number no more
   than the occurrences themselves.  Resolvents enter the proof (each is
   a RUP consequence while the originals are live); learnt occurrences
   leave the proof; problem occurrences are merely deactivated and kept
   on [elim_rec] for model reconstruction and on-demand restoration —
   the checker keeping them is sound (a superset only propagates more).
   A pending model replays the record as it stood at its answer, so the
   record is compacted only when no model is valid. *)
let bve_pass s occs =
  if (not s.model_valid) && 2 * s.elim_dead > s.elim_rec.n then
    compact_elim s;
  (* [stamp.(l) = tick] marks the literals of the positive clause being
     resolved; one tick per positive clause, so no clearing *)
  let stamp = Array.make (2 * s.cap) 0 and tick = ref 0 in
  let root_sat codes = Array.exists (fun l -> lit_value s l = 1) codes in
  let mark codes =
    incr tick;
    Array.iter (fun l -> stamp.(l) <- !tick) codes
  in
  (* the resolvent of the marked clause and [ncodes] on [x] is
     non-trivial: neither side is root-satisfied (checked by the caller)
     and no literal of [ncodes] but the pivot meets its negation *)
  let non_trivial ncodes x =
    Array.for_all (fun l -> l lsr 1 = x || stamp.(l lxor 1) <> !tick) ncodes
  in
  (* the non-trivial resolvent of the marked clause and [ncodes]: the
     union without the pivot and without root-false literals, sorted *)
  let resolve pcodes ncodes x =
    let lits = ref [] in
    let push l =
      if l lsr 1 <> x && lit_value s l <> 0 then lits := l :: !lits
    in
    Array.iter push pcodes;
    Array.iter (fun l -> if stamp.(l) <> !tick then push l) ncodes;
    let out = Array.of_list !lits in
    Array.sort Int.compare out;
    out
  in
  let live ivec =
    let out = ref [] in
    for i = ivec.n - 1 downto 0 do
      let cr = ivec.a.(i) in
      if not (c_removed s cr) then out := cr :: !out
    done;
    !out
  in
  let v = ref 0 in
  while !v < s.nvars && s.ok && not (past_deadline s) do
    let x = !v in
    if
      (not s.eliminated.(x))
      && (not s.frozen.(x))
      && s.assigns.(x) < 0
    then begin
      let pos = live occs.(2 * x) and neg = live occs.((2 * x) + 1) in
      let np = List.length pos and nn = List.length neg in
      if np + nn > 0 && np <= 8 && nn <= 8 then begin
        (* each side's literals once, root-satisfied clauses dropped:
           they resolve to nothing *)
        let side crs =
          List.filter_map
            (fun cr ->
              let codes = c_codes s cr in
              if root_sat codes then None else Some codes)
            crs
        in
        let pcs = side pos and ncs = side neg in
        (* count non-trivial resolvents, stopping once past np + nn *)
        let limit = np + nn in
        let count = ref 0 in
        List.iter
          (fun pcodes ->
            if !count <= limit then begin
              mark pcodes;
              List.iter
                (fun ncodes -> if non_trivial ncodes x then incr count)
                ncs
            end)
          pcs;
        if !count <= limit then begin
          let resolvents =
            List.concat_map
              (fun pcodes ->
                mark pcodes;
                List.filter_map
                  (fun ncodes ->
                    if non_trivial ncodes x then Some (resolve pcodes ncodes x)
                    else None)
                  ncs)
              pcs
          in
          s.s_eliminated <- s.s_eliminated + 1;
          (* proof: all resolvents first, then the learnt originals'
             deletions (their RUP checks need the originals live) *)
          List.iter (fun codes -> proof_add s codes) resolvents;
          let r = s.elim_rec in
          let o = r.n in
          ivec_push s.elim_offs o;
          s.elim_at.(x) <- s.elim_offs.n - 1;
          ivec_push r x;
          ivec_push r 0;
          List.iter
            (fun cr ->
              if c_learnt s cr then begin
                s.s_deleted <- s.s_deleted + 1;
                proof_delete s (c_codes s cr)
              end
              else begin
                let len = c_len s cr in
                let h = r.n in
                ivec_push r (len lsl 1);
                for k = 0 to len - 1 do
                  let l = c_lit s cr k in
                  if l = 2 * x then r.a.(h) <- r.a.(h) lor 1;
                  ivec_push r l
                done;
                r.a.(o + 1) <- r.a.(o + 1) + 1
              end;
              (* binary watches skip the removed bit: detach eagerly *)
              if c_len s cr = 2 then detach s cr;
              mark_removed s cr)
            (pos @ neg);
          s.eliminated.(x) <- true;
          (* activate the resolvents (no further Add steps) *)
          List.iter
            (fun codes ->
              install_simplified s codes ~learnt:false ~act:0.0 (Some occs))
            resolvents
        end
      end
    end;
    incr v
  done

let compact_dbs s =
  let keep vec pred =
    let out = ivec_make () in
    for i = 0 to vec.n - 1 do
      let cr = vec.a.(i) in
      if pred cr then ivec_push out cr
    done;
    vec.a <- out.a;
    vec.n <- out.n
  in
  keep s.clauses (fun cr -> (not (c_removed s cr)) && not (c_learnt s cr));
  keep s.learnts (fun cr -> (not (c_removed s cr)) && c_learnt s cr)

let simplify_now s =
  if s.ok && decision_level s = 0 then begin
    s.simp_interval <- 2 * s.simp_interval;
    s.simp_next <- s.s_conflicts + s.simp_interval;
    if propagate s >= 0 then begin
      s.ok <- false;
      proof_add s [||]
    end;
    if s.ok then begin
      remove_satisfied_pass s;
      if s.ok then begin
        let occs = build_occs s in
        subsumption_pass s occs;
        if s.ok then vivify_pass s occs;
        if s.ok then bve_pass s occs
      end;
      compact_dbs s;
      if s.waste > s.arena_n / 2 && s.arena_n > 4096 then gc_arena s
    end
  end

let simplify s =
  if s.ok then begin
    cancel_until s 0;
    simplify_now s
  end

(* ---------- search ---------- *)

(* luby y i = y * L(i+1) where L is the Luby restart sequence
   1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let luby y i =
  let rec go x =
    let k = ref 1 in
    while (1 lsl !k) - 1 < x do incr k done;
    if (1 lsl !k) - 1 = x then float_of_int (1 lsl (!k - 1))
    else go (x - (1 lsl (!k - 1)) + 1)
  in
  y *. go (i + 1)

let pick_branch_var s =
  let rec loop () =
    if s.heap_n = 0 then None
    else
      let v = heap_pop s in
      if s.assigns.(v) < 0 && not s.eliminated.(v) then Some v else loop ()
  in
  loop ()

let record_learnt s out =
  s.s_learned_total <- s.s_learned_total + 1;
  proof_add s out;
  if Array.length out = 1 then enqueue s out.(0) (-1)
  else begin
    let cr = alloc_clause s out ~learnt:true in
    ivec_push s.learnts cr;
    clause_bump s cr;
    attach s cr;
    enqueue s out.(0) cr
  end

(* Which assumptions force [p] false?  MiniSat's analyzeFinal: seed the
   seen set with [p]'s variable and walk the trail top-down; a seen
   literal without a reason is an enqueued assumption (at the detection
   point every open level is an assumption level), a seen literal with a
   reason charges the reason's tail.  Returns the failed-assumption core
   as literal codes, [p] included. *)
let analyze_final s p =
  let core = ref [ p ] in
  if decision_level s > 0 then begin
    s.seen.(p lsr 1) <- true;
    for i = s.trail_n - 1 downto s.trail_lim.(0) do
      let l = s.trail.(i) in
      let v = l lsr 1 in
      if s.seen.(v) then begin
        let cr = s.reason.(v) in
        if cr < 0 then core := l :: !core
        else
          for k = 0 to c_len s cr - 1 do
            let q = c_lit s cr k in
            if s.level.(q lsr 1) > 0 then s.seen.(q lsr 1) <- true
          done;
        s.seen.(v) <- false
      end
    done;
    s.seen.(p lsr 1) <- false
  end;
  !core

(* complete the model of the active set into a model of the original
   formula: walk the first [top] entries of the elimination record
   newest-first, making each variable true exactly when one of its
   stored positive occurrences has every other literal false (every
   negative occurrence is then satisfied, or one of the recorded
   resolvents would have been falsified) *)
let extend_model s top =
  let r = s.elim_rec.a and offs = s.elim_offs.a and m = s.final_model in
  for i = top - 1 downto 0 do
    let o = offs.(i) in
    let v = r.(o) in
    if v >= 0 then begin
      let pos = 2 * v in
      let n = r.(o + 1) in
      let p = ref (o + 2) and c = ref 0 and found = ref false in
      while (not !found) && !c < n do
        let h = r.(!p) in
        let stop = !p + (h lsr 1) in
        if h land 1 = 1 then begin
          let k = ref (!p + 1) in
          while
            !k <= stop
            &&
            let l = r.(!k) in
            l = pos || m.(l lsr 1) <> (l land 1 = 0)
          do
            incr k
          done;
          found := !k > stop
        end;
        p := stop + 1;
        incr c
      done;
      m.(v) <- !found
    end
  done

let solve_limited ?(assumptions = []) ~budget s =
  s.model_valid <- false;
  s.conflict_core <- None;
  if not s.ok then begin
    s.conflict_core <- Some [];
    Solved Unsat
  end
  else if Budget.exhausted budget then begin
    cancel_until s 0;
    Unknown
  end
  else begin
    let assumptions = Array.of_list (List.map Lit.code assumptions) in
    (* resume the kept trail only under the same assumptions (its first
       levels are theirs) and when no inprocessing round is due (a round
       needs the root); otherwise start from the root *)
    if
      not
        (assumptions = s.kept
        && s.s_conflicts < s.simp_next
        && Array.for_all (fun l -> not s.eliminated.(l lsr 1)) assumptions)
    then cancel_until s 0;
    Array.iter (fun l -> ensure_vars s ((l lsr 1) + 1)) assumptions;
    Array.iter
      (fun l ->
        let v = l lsr 1 in
        if s.eliminated.(v) then restore_var s v)
      assumptions;
    Array.iter (fun l -> s.frozen.(l lsr 1) <- true) assumptions;
    let conflicts0 = s.s_conflicts and propagations0 = s.s_propagations in
    s.deadline <- Budget.deadline budget;
    s.ticks <- 0;
    if s.s_conflicts >= s.simp_next then simplify_now s;
    let release () =
      s.deadline <- infinity;
      Array.iter (fun l -> s.frozen.(l lsr 1) <- false) assumptions;
      Budget.charge budget
        ~conflicts:(s.s_conflicts - conflicts0)
        ~propagations:(s.s_propagations - propagations0)
    in
    if not s.ok then begin
      release ();
      s.conflict_core <- Some [];
      Solved Unsat
    end
    else begin
      (* decision levels are bounded by nvars + |assumptions| (already-true
         assumptions open dummy levels), so trail_lim may need extra room *)
      let lim_needed = s.nvars + Array.length assumptions + 1 in
      if Array.length s.trail_lim < lim_needed then begin
        let a = Array.make lim_needed 0 in
        Array.blit s.trail_lim 0 a 0 (Array.length s.trail_lim);
        s.trail_lim <- a
      end;
      (* only ever raise the learnt-DB cap: restarts grow it by 1.1x and
         that growth must survive into the next call of an enumeration *)
      s.max_learnts <- max s.max_learnts (float_of_int s.clauses.n /. 3.0);
      (* budget horizons on the cumulative counters; saturating so that an
         unlimited allowance (max_int) never wraps *)
      let horizon base left =
        if left >= max_int - base then max_int else base + left
      in
      let conf_limit = horizon conflicts0 (Budget.conflicts_left budget) in
      let prop_limit =
        horizon propagations0 (Budget.propagations_left budget)
      in
      let out_of_budget () =
        s.s_conflicts >= conf_limit
        || s.s_propagations >= prop_limit
        || past_deadline s
      in
      let restart_first = 100.0 in
      let curr_restarts = ref 0 in
      let conflicts_left = ref (luby restart_first !curr_restarts) in
      let result = ref None in
      while !result = None do
        if out_of_budget () then result := Some Unknown
        else begin
          let confl = propagate s in
          if confl >= 0 then begin
            s.s_conflicts <- s.s_conflicts + 1;
            conflicts_left := !conflicts_left -. 1.0;
            (match s.hooks with
            | None -> ()
            | Some h ->
                Obs.Histogram.observe h.h_conflict_gap
                  (s.s_propagations - s.last_conflict_props);
                s.last_conflict_props <- s.s_propagations);
            if decision_level s = 0 then begin
              s.ok <- false;
              s.conflict_core <- Some [];
              proof_add s [||];
              result := Some (Solved Unsat)
            end
            else begin
              let out, blevel = analyze s confl in
                  (match s.hooks with
              | None -> ()
              | Some h ->
                  Obs.Histogram.observe h.h_learnt_len (Array.length out);
                  Obs.Histogram.observe h.h_backtrack
                    (decision_level s - blevel));
              cancel_until s blevel;
              record_learnt s out;
                  var_decay_activities s;
              clause_decay_activities s;
              if
                float_of_int s.learnts.n -. float_of_int s.trail_n
                > s.max_learnts
              then reduce_db s
            end
          end
          else if !conflicts_left <= 0.0 then begin
            (* restart *)
            s.s_restarts <- s.s_restarts + 1;
            incr curr_restarts;
            conflicts_left := luby restart_first !curr_restarts;
            s.max_learnts <- s.max_learnts *. 1.1;
            cancel_until s 0;
            if s.s_conflicts >= s.simp_next then simplify_now s;
            if s.waste > s.arena_n / 2 && s.arena_n > 4096 then gc_arena s;
            if not s.ok then begin
              s.conflict_core <- Some [];
              result := Some (Solved Unsat)
            end
          end
          else if decision_level s < Array.length assumptions then begin
            let p = assumptions.(decision_level s) in
            match lit_value s p with
            | 1 -> new_decision_level s
            | 0 ->
                let core = analyze_final s p in
                s.conflict_core <- Some core;
                proof_add s
                  (Array.of_list (List.map (fun l -> l lxor 1) core));
                result := Some (Solved Unsat)
            | _ ->
                new_decision_level s;
                enqueue s p (-1)
          end
          else begin
            match pick_branch_var s with
            | None -> result := Some (Solved Sat)
            | Some v ->
                s.s_decisions <- s.s_decisions + 1;
                new_decision_level s;
                let l = (2 * v) lor (if s.phase.(v) then 0 else 1) in
                enqueue s l (-1)
          end
        end
      done;
      let r = match !result with Some r -> r | None -> assert false in
      (* keep the final model readable; a [Sat] answer keeps its trail
         for the next call to resume, any other answer resets it *)
      if r = Solved Sat then begin
        s.model_valid <- true;
        if Array.length s.final_model <> s.nvars then
          s.final_model <- Array.make s.nvars false;
        for v = 0 to s.nvars - 1 do
          s.final_model.(v) <- s.assigns.(v) = 1
        done;
        s.model_pending <- s.elim_offs.n;
        s.kept <- assumptions
      end
      else cancel_until s 0;
      release ();
      r
    end
  end

let solve ?assumptions s =
  match solve_limited ?assumptions ~budget:(Budget.unlimited ()) s with
  | Solved r -> r
  | Unknown -> assert false (* an unlimited budget is never exhausted *)

(* While the model is valid no variable is restored (adding a clause or
   solving invalidates it first), so a variable eliminated at the [Sat]
   answer is still flagged eliminated here.  [simplify] may eliminate
   more, which only triggers the replay early: [model_pending] is the
   record as it stood at the answer. *)
let complete_model s =
  if s.model_pending > 0 then begin
    extend_model s s.model_pending;
    s.model_pending <- 0
  end

let value s v =
  if not s.model_valid then invalid_arg "Solver.value: no model";
  if s.eliminated.(v) then complete_model s;
  s.final_model.(v)

let model s =
  if not s.model_valid then invalid_arg "Solver.model: no model";
  complete_model s;
  Array.copy s.final_model

let eliminations s =
  let r = s.elim_rec.a in
  let entry o =
    let cls = ref [] and p = ref (o + 2) in
    for _ = 1 to r.(o + 1) do
      let len = r.(!p) lsr 1 and q = !p + 1 in
      cls := List.init len (fun k -> Lit.of_code r.(q + k)) :: !cls;
      p := q + len
    done;
    (r.(o), List.rev !cls)
  in
  List.filter_map
    (fun i ->
      let o = s.elim_offs.a.(i) in
      if r.(o) >= 0 then Some (entry o) else None)
    (List.init s.elim_offs.n (fun i -> s.elim_offs.n - 1 - i))

let stats s =
  {
    decisions = s.s_decisions;
    propagations = s.s_propagations;
    conflicts = s.s_conflicts;
    restarts = s.s_restarts;
    learned = s.learnts.n;
    learned_total = s.s_learned_total;
    deleted = s.s_deleted;
    subsumed = s.s_subsumed;
    strengthened = s.s_strengthened;
    vivified = s.s_vivified;
    eliminated = s.s_eliminated;
  }

let set_default_phase s v b =
  grow_to s (v + 1);
  s.phase.(v) <- b

let unsat_core s =
  match s.conflict_core with
  | None -> invalid_arg "Solver.unsat_core: last answer was not Unsat"
  | Some codes -> List.map Lit.of_code codes

(* Unsat drops the literal and narrows to the fresh failed-assumption
   core (intersected with the working set, so callback-injected extras
   cannot leak in); Sat or Unknown keeps it. *)
let shrink_core ?solve ?budget s core =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  let resolve assumptions =
    match solve with
    | Some f -> f assumptions
    | None -> solve_limited ~assumptions ~budget s
  in
  let test candidate =
    match resolve candidate with
    | Solved Unsat ->
        let refined = unsat_core s in
        Shrink.Holds_within (fun x -> List.exists (Lit.equal x) refined)
    | Solved Sat | Unknown -> Shrink.Fails
  in
  match Shrink.deletion ~test core with Ok core | Error core -> core

let activity_of s v = if v < s.nvars then s.activity.(v) else 0.0

let bump_priority s v amount =
  if v < s.nvars then begin
    s.activity.(v) <- s.activity.(v) +. amount;
    (* same rescale guard as [var_bump]: external seeding (hybrid/BSIM
       priming) can otherwise push activities to infinity *)
    if s.activity.(v) > 1e100 then begin
      for i = 0 to s.nvars - 1 do
        s.activity.(i) <- s.activity.(i) *. 1e-100
      done;
      s.var_inc <- s.var_inc *. 1e-100
    end;
    heap_notify_increase s v
  end
