(* Forward and backward DRUP checking with a deliberately simple
   propagation engine: per-literal occurrence lists and a full scan of
   each touched clause.  Slower than two-watched literals but
   independent of solver.ml and easy to audit — the point of a checker.
   The occurrence lists are flat int vectors rather than linked lists so
   replay walks contiguous memory, and propagation is counter-based:
   fc.(ci) tracks how many literals of clause [ci] are false among the
   *processed* trail prefix trail.(0 .. qhead-1), so falsifying one more
   literal costs O(1) and a clause is scanned only when it becomes unit
   or conflicting.  Seeding scans (installation, trail rebuilds, clause
   revival) recount a clause directly; deaths freeze its counter and
   revival recounts it.

   Assignment encoding: assigns.(v) is -1 (unset), 0 (false), 1 (true);
   literal l (code 2v/2v+1) is true iff assigns.(l lsr 1) = (l land 1)
   lxor 1.  The root trail (everything implied by the live clause set
   alone) persists; RUP checks push assumptions on top and roll back.

   Deletion semantics are strict: the root trail is a function of the
   live clause set, nothing else.  Deleting a clause that justified a
   root-trail literal (its "reason") rebuilds the trail from scratch, so
   the literal does not survive as a ghost of the deleted clause; a
   contradiction reached by propagation is likewise recomputed, while a
   literally installed empty clause is a permanent refutation.  reason.(v)
   is the id of the clause whose scan enqueued v's literal (-1 for a RUP
   assumption); the reason graph doubles as the antecedent structure the
   backward checker marks through.

   Model checks are incremental.  mval keeps a copy of the last model
   checked for every variable of an input clause: 0 marks a variable no
   input clause holds, 1 one not yet read, 2 false and 3 true.  Every
   live input clause below mchecked has a witness, a literal true under
   that copy, and sits in the witness's list: whead.(l) is the first
   clause id witnessed by l and wnext.(ci) the next one, so each clause
   is in at most one list.  A new model only re-witnesses the lists of
   literals it made false, plus the clauses installed since the last
   check.  A failed (or interrupted) check clears mvalid, and the next
   one re-witnesses every clause. *)

type clause = { lits : int array; mutable dead : bool; input : bool }

(* growable int vector *)
type ivec = { mutable a : int array; mutable n : int }

let ivec_make () = { a = [||]; n = 0 }

let ivec_push v x =
  if v.n = Array.length v.a then begin
    let a' = Array.make (max 4 (2 * v.n)) 0 in
    Array.blit v.a 0 a' 0 v.n;
    v.a <- a'
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

type t = {
  mutable assigns : int array;
  mutable trail : int array;
  mutable trail_n : int;
  mutable qhead : int;
  mutable reason : int array; (* var -> justifying clause id, -1 none *)
  mutable clauses : clause array;
  mutable n_clauses : int;
  mutable occs : ivec array; (* lit code -> clause indices *)
  mutable live : int;
  index : (int array, int list) Hashtbl.t; (* sorted codes -> live ids *)
  mutable empty_count : int; (* installed empty clauses: permanent *)
  mutable contradiction : bool; (* propagation conflict: recomputable *)
  mutable conflict_at : int; (* clause id of the last conflict *)
  mutable prune : bool; (* occurrence-list pruning enabled *)
  mutable dead_unpruned : int; (* deaths since the last prune *)
  mutable fc : int array;
  (* clause id -> false literals among trail.(0..qhead-1); live only *)
  pending : ivec; (* scratch for the antecedent-marking traversal *)
  mutable mval : Bytes.t; (* var -> copy of the last model checked *)
  mvars : ivec; (* the variables of input clauses, each once *)
  mutable whead : int array; (* lit code -> first witnessed clause, -1 *)
  mutable wnext : int array; (* clause id -> next in its witness list *)
  mutable mchecked : int; (* clause ids below this have witnesses *)
  mutable mvalid : bool; (* the witnesses hold under mval *)
  flipped : ivec; (* scratch: literals the new model made false *)
}

let create () =
  {
    assigns = Array.make 16 (-1);
    trail = Array.make 16 0;
    trail_n = 0;
    qhead = 0;
    reason = Array.make 16 (-1);
    clauses = [||];
    n_clauses = 0;
    occs = Array.init 32 (fun _ -> ivec_make ());
    live = 0;
    index = Hashtbl.create 64;
    empty_count = 0;
    contradiction = false;
    conflict_at = -1;
    prune = true;
    dead_unpruned = 0;
    fc = [||];
    pending = ivec_make ();
    mval = Bytes.make 16 '\000';
    mvars = ivec_make ();
    whead = Array.make 32 (-1);
    wnext = [||];
    mchecked = 0;
    mvalid = false;
    flipped = ivec_make ();
  }

let refuted t = t.empty_count > 0 || t.contradiction
let num_clauses t = t.live

let grow t nvars =
  let cap = Array.length t.assigns in
  if nvars > cap then begin
    let cap' = max nvars (2 * cap) in
    let assigns = Array.make cap' (-1) in
    Array.blit t.assigns 0 assigns 0 cap;
    t.assigns <- assigns;
    let trail = Array.make cap' 0 in
    Array.blit t.trail 0 trail 0 t.trail_n;
    t.trail <- trail;
    let reason = Array.make cap' (-1) in
    Array.blit t.reason 0 reason 0 cap;
    t.reason <- reason;
    let occs = Array.init (2 * cap') (fun _ -> ivec_make ()) in
    Array.blit t.occs 0 occs 0 (Array.length t.occs);
    t.occs <- occs;
    let mval = Bytes.make cap' '\000' in
    Bytes.blit t.mval 0 mval 0 cap;
    t.mval <- mval;
    let whead = Array.make (2 * cap') (-1) in
    Array.blit t.whead 0 whead 0 (2 * cap);
    t.whead <- whead
  end

let enqueue t l reason =
  t.assigns.(l lsr 1) <- (l land 1) lxor 1;
  t.reason.(l lsr 1) <- reason;
  t.trail.(t.trail_n) <- l;
  t.trail_n <- t.trail_n + 1

(* scan a clause: true if satisfied; otherwise enqueue a sole unassigned
   literal; a fully false clause is a conflict *)
exception Conflict

(* recount a clause's false-literal counter against the processed trail
   prefix; used when a clause enters (or re-enters) the live set.  The
   queue is empty at every such moment, so "processed" = "assigned". *)
let recount t ci =
  let lits = t.clauses.(ci).lits in
  let assigns = t.assigns in
  let f = ref 0 in
  for i = 0 to Array.length lits - 1 do
    let l = Array.unsafe_get lits i in
    if Array.unsafe_get assigns (l lsr 1) lxor (l land 1) = 0 then incr f
  done;
  t.fc.(ci) <- !f

let scan_clause t ci =
  let lits = t.clauses.(ci).lits in
  let assigns = t.assigns in
  let sat = ref false in
  let unknown = ref (-1) in
  let two = ref false in
  let len = Array.length lits in
  let i = ref 0 in
  while (not !sat) && (not !two) && !i < len do
    let l = Array.unsafe_get lits !i in
    let a = Array.unsafe_get assigns (l lsr 1) in
    if a < 0 then begin
      if !unknown < 0 then unknown := l else two := true
    end
    else if a lxor (l land 1) = 1 then sat := true;
    incr i
  done;
  if not (!sat || !two) then
    if !unknown < 0 then begin
      t.conflict_at <- ci;
      raise Conflict
    end
    else enqueue t !unknown ci

(* act on a clause whose counter reached len-1: enqueue its sole
   unassigned literal.  The clause may instead be satisfied, or its last
   non-counted literal may be false but still queued — then nothing
   happens here and the conflict surfaces when that literal is
   processed. *)
let unit_or_sat t ci =
  let lits = t.clauses.(ci).lits in
  let assigns = t.assigns in
  let len = Array.length lits in
  let k = ref 0 in
  let stop = ref false in
  while (not !stop) && !k < len do
    let l = Array.unsafe_get lits !k in
    let a = Array.unsafe_get assigns (l lsr 1) in
    if a < 0 then begin
      enqueue t l ci;
      stop := true
    end
    else if a lxor (l land 1) = 1 then stop := true
    else incr k
  done

(* propagate the queue to fixpoint; raises Conflict *)
let propagate t =
  while t.qhead < t.trail_n do
    let l = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    let os = t.occs.(l lxor 1) in
    let oa = os.a in
    let n = os.n in
    let fc = t.fc in
    let k = ref 0 in
    while !k < n do
      let ci = Array.unsafe_get oa !k in
      let c = Array.unsafe_get t.clauses ci in
      if not c.dead then begin
        let f = Array.unsafe_get fc ci + 1 in
        Array.unsafe_set fc ci f;
        let len = Array.length c.lits in
        if f >= len - 1 then
          if f = len then begin
            (* conflict: retract this literal's walk so the counters
               again match the processed prefix, then report *)
            for j = 0 to !k do
              let cj = oa.(j) in
              if not t.clauses.(cj).dead then fc.(cj) <- fc.(cj) - 1
            done;
            t.qhead <- t.qhead - 1;
            t.conflict_at <- ci;
            raise Conflict
          end
          else unit_or_sat t ci
      end;
      incr k
    done
  done

let rollback t mark =
  for i = t.trail_n - 1 downto mark do
    let l = t.trail.(i) in
    let v = l lsr 1 in
    t.assigns.(v) <- -1;
    t.reason.(v) <- -1;
    if i < t.qhead then begin
      (* this literal's falsifications were counted: take them back *)
      let os = t.occs.(l lxor 1) in
      let oa = os.a in
      let fc = t.fc in
      for k = 0 to os.n - 1 do
        let ci = Array.unsafe_get oa k in
        if not t.clauses.(ci).dead then
          Array.unsafe_set fc ci (Array.unsafe_get fc ci - 1)
      done
    end
  done;
  t.trail_n <- mark;
  t.qhead <- min t.qhead mark

(* recompute the root trail and the propagation-contradiction flag from
   the live clause set alone — the post-deletion ground truth *)
let rebuild t =
  rollback t 0;
  t.contradiction <- false;
  (match
     for ci = 0 to t.n_clauses - 1 do
       if not t.clauses.(ci).dead then begin
         t.fc.(ci) <- 0;
         scan_clause t ci
       end
     done;
     propagate t
   with
  | () -> ()
  | exception Conflict -> t.contradiction <- true)

(* is [ci] the recorded reason of any root-trail literal? *)
let clause_locked t ci =
  let rec go i =
    i < t.trail_n
    && (t.reason.(t.trail.(i) lsr 1) = ci || go (i + 1))
  in
  go 0

(* the sorted codes array itself keys the index (structural hash) *)
let key_of codes = codes

(* normalize: sorted unique codes; None for tautologies (never unit or
   conflicting, so they can be dropped without weakening propagation) *)
let normalize lits =
  let codes = List.sort_uniq Int.compare (List.map Lit.code lits) in
  let rec tauto = function
    | a :: (b :: _ as rest) -> (a lxor 1) = b || tauto rest
    | _ -> false
  in
  if tauto codes then None else Some (Array.of_list codes)

let normalize_grown t lits =
  List.iter (fun l -> grow t (Lit.var l + 1)) lits;
  normalize lits

let install t ~input codes =
  let c = { lits = codes; dead = false; input } in
  if t.n_clauses = Array.length t.clauses then begin
    let a = Array.make (max 16 (2 * t.n_clauses)) c in
    Array.blit t.clauses 0 a 0 t.n_clauses;
    t.clauses <- a;
    let fcs = Array.make (max 16 (2 * t.n_clauses)) 0 in
    Array.blit t.fc 0 fcs 0 t.n_clauses;
    t.fc <- fcs;
    let wnext = Array.make (max 16 (2 * t.n_clauses)) (-1) in
    Array.blit t.wnext 0 wnext 0 t.n_clauses;
    t.wnext <- wnext
  end;
  let ci = t.n_clauses in
  t.clauses.(ci) <- c;
  t.n_clauses <- ci + 1;
  t.live <- t.live + 1;
  Array.iter (fun l -> ivec_push t.occs.(l) ci) codes;
  if input then
    Array.iter
      (fun l ->
        let v = l lsr 1 in
        if Bytes.get t.mval v = '\000' then begin
          Bytes.set t.mval v '\001';
          ivec_push t.mvars v
        end)
      codes;
  let key = key_of codes in
  Hashtbl.replace t.index key
    (ci :: Option.value ~default:[] (Hashtbl.find_opt t.index key));
  (* keep the root trail at fixpoint *)
  (if not (refuted t) then
     match
       recount t ci;
       scan_clause t ci;
       propagate t
     with
     | () -> ()
     | exception Conflict -> t.contradiction <- true);
  ci

let add_lits t ~input lits =
  match normalize_grown t lits with
  | None -> () (* tautology *)
  | Some [||] -> t.empty_count <- t.empty_count + 1
  | Some codes -> ignore (install t ~input codes)

let add_clause t lits = add_lits t ~input:true lits

let add_cnf t f =
  grow t f.Cnf.num_vars;
  List.iter (add_clause t) (Cnf.clauses f)

(* RUP check over literal codes.  With [marker], a successful check also
   marks every antecedent clause id (the conflicting clause — or the
   clause chain satisfying a root-true literal — plus the transitive
   reasons of the false literals involved): the needed-set traversal of
   backward checking.  Marking happens before rollback, while the
   assumption literals' reasons are still on the trail. *)
exception Root_sat of int (* var of a literal true at root *)

let mark_antecedents t marker ~from_clause ~from_var =
  let pending = t.pending in
  pending.n <- 0;
  let push ci =
    if ci >= 0 && ci < Bytes.length marker && Bytes.get marker ci = '\000'
    then begin
      Bytes.set marker ci '\001';
      ivec_push pending ci
    end
  in
  push from_clause;
  if from_var >= 0 then push t.reason.(from_var);
  while pending.n > 0 do
    pending.n <- pending.n - 1;
    let ci = pending.a.(pending.n) in
    Array.iter
      (fun l ->
        let r = t.reason.(l lsr 1) in
        if r >= 0 then push r)
      t.clauses.(ci).lits
  done

let rup_codes t ?marker codes =
  refuted t
  ||
  let mark0 = t.trail_n in
  let ok, from_clause, from_var =
    match
      let assigns = t.assigns in
      Array.iter
        (fun l ->
          let nl = l lxor 1 in
          let a = assigns.(nl lsr 1) in
          if a < 0 then enqueue t nl (-1)
          else if a lxor (nl land 1) = 0 then
            raise (Root_sat (nl lsr 1)) (* l is true at root *))
        codes;
      propagate t
    with
    | () -> (false, -1, -1)
    | exception Conflict -> (true, t.conflict_at, -1)
    | exception Root_sat v -> (true, -1, v)
  in
  (match marker with
  | Some m when ok -> mark_antecedents t m ~from_clause ~from_var
  | _ -> ());
  rollback t mark0;
  ok

let check_rup t lits =
  List.iter (fun l -> grow t (Lit.var l + 1)) lits;
  rup_codes t (Array.of_list (List.map Lit.code lits))

(* among identical live copies, delete a derived one before an input
   one, so [model_ok]'s input-clause coverage survives DB reduction *)
let pick_removable t ids =
  let rec go acc = function
    | [] -> ( match ids with ci :: rest -> Some (ci, rest) | [] -> None)
    | ci :: rest ->
        if not t.clauses.(ci).input then Some (ci, List.rev_append acc rest)
        else go (ci :: acc) rest
  in
  go [] ids

let prune_occs t =
  for l = 0 to Array.length t.occs - 1 do
    let os = t.occs.(l) in
    let j = ref 0 in
    for k = 0 to os.n - 1 do
      let ci = os.a.(k) in
      if not t.clauses.(ci).dead then begin
        os.a.(!j) <- ci;
        incr j
      end
    done;
    os.n <- !j
  done;
  t.dead_unpruned <- 0

let remove_ci t lits =
  match normalize_grown t lits with
  | None -> Ok (-1) (* tautologies were never installed *)
  | Some codes -> (
      let key = key_of codes in
      match Option.bind (Hashtbl.find_opt t.index key) (pick_removable t) with
      | Some (ci, rest) ->
          t.clauses.(ci).dead <- true;
          t.live <- t.live - 1;
          t.dead_unpruned <- t.dead_unpruned + 1;
          if rest = [] then Hashtbl.remove t.index key
          else Hashtbl.replace t.index key rest;
          (* strict deletion: a root-trail literal must not outlive the
             clause that propagated it, and a propagation contradiction
             must not outlive the clauses it was derived from *)
          if
            t.empty_count = 0
            && (t.contradiction || clause_locked t ci)
          then rebuild t;
          if
            t.prune && t.dead_unpruned >= 64
            && 2 * t.dead_unpruned > t.n_clauses
          then prune_occs t;
          Ok ci
      | None ->
          Error
            (Printf.sprintf "delete of absent clause (%s)"
               (String.concat " "
                  (List.map (fun l -> string_of_int (Lit.to_dimacs l)) lits))))

let not_rup_msg lits =
  Printf.sprintf "clause (%s) is not a RUP consequence"
    (String.concat " "
       (List.map (fun l -> string_of_int (Lit.to_dimacs l)) lits))

let check_step t step =
  match step with
  | Proof.Delete lits -> Result.map (fun _ci -> ()) (remove_ci t lits)
  | Proof.Add lits ->
      if check_rup t lits then begin
        add_lits t ~input:false lits;
        Ok ()
      end
      else Error (not_rup_msg lits)

(* give clause [ci] a witness true under mval and link it into that
   literal's list; false when every literal is false *)
let witness t ci =
  let lits = t.clauses.(ci).lits and mval = t.mval in
  let len = Array.length lits in
  let k = ref 0 in
  while
    !k < len
    &&
    let l = Array.unsafe_get lits !k in
    Char.code (Bytes.unsafe_get mval (l lsr 1)) <> 3 - (l land 1)
  do
    incr k
  done;
  !k < len
  &&
  let l = lits.(!k) in
  t.wnext.(ci) <- t.whead.(l);
  t.whead.(l) <- ci;
  true

(* witness the live input clauses with ids from [first] on *)
let witness_from t first =
  let ok = ref true and ci = ref first in
  while !ok && !ci < t.n_clauses do
    let c = t.clauses.(!ci) in
    if c.input && (not c.dead) && not (witness t !ci) then ok := false;
    incr ci
  done;
  !ok

(* re-witness the clauses of literal [l]'s list, which the new model made
   false; dead clauses leave the list *)
let rewitness t l =
  let ci = ref t.whead.(l) and ok = ref true in
  t.whead.(l) <- -1;
  while !ok && !ci >= 0 do
    let next = t.wnext.(!ci) in
    if (not t.clauses.(!ci).dead) && not (witness t !ci) then ok := false;
    ci := next
  done;
  !ok

let model_ok ?(assumptions = []) t value =
  let valid = t.mvalid in
  t.mvalid <- false;
  (* refresh the copy, collecting the literals that became false *)
  let flipped = t.flipped and mvars = t.mvars in
  flipped.n <- 0;
  for i = 0 to mvars.n - 1 do
    let v = mvars.a.(i) in
    let b = if value v then 3 else 2 in
    let old = Char.code (Bytes.get t.mval v) in
    if old <> b then begin
      Bytes.set t.mval v (Char.chr b);
      if old >= 2 then ivec_push flipped ((2 * v) + b - 2)
    end
  done;
  let clauses_ok =
    if valid then begin
      let ok = ref true and i = ref 0 in
      while !ok && !i < flipped.n do
        ok := rewitness t flipped.a.(!i);
        incr i
      done;
      !ok && witness_from t t.mchecked
    end
    else begin
      Array.fill t.whead 0 (Array.length t.whead) (-1);
      witness_from t 0
    end
  in
  let ok =
    clauses_ok
    && List.for_all (fun l -> value (Lit.var l) = Lit.sign l) assumptions
  in
  t.mchecked <- t.n_clauses;
  t.mvalid <- ok;
  ok

(* ------------------------------------------------------------------ *)
(* One-shot certification                                             *)

type mode = Forward | Backward

let neg_codes assumptions =
  List.map (fun l -> Lit.code (Lit.negate l)) assumptions

(* assumptions holding a literal and its negation fail on their own: the
   core clause they establish is a tautology, which every clause set
   implies, so the proof need not derive it *)
let contradictory assumptions =
  List.exists (fun l -> List.mem (Lit.negate l) assumptions) assumptions

let establishes neg = function
  | Proof.Add (_ :: _ as lits) ->
      List.for_all (fun l -> List.mem (Lit.code l) neg) lits
  | Proof.Add [] | Proof.Delete _ -> false

(* conclusion check against the FINAL live clause set: the claim must
   still hold once every deletion has been applied.  An establishing
   core clause counts only if it is live at the end of the proof, or a
   RUP consequence of what is. *)
let conclusion_ok t ~assumptions steps =
  refuted t
  ||
  (assumptions <> []
  &&
  let neg = neg_codes assumptions in
  Array.exists
    (fun step ->
      establishes neg step
      &&
      match step with
      | Proof.Add lits -> (
          match normalize_grown t lits with
          | None | Some [||] -> false
          | Some codes ->
              Hashtbl.mem t.index (key_of codes) || rup_codes t codes)
      | Proof.Delete _ -> false)
    steps)

let concludes t ~assumptions steps =
  contradictory assumptions || conclusion_ok t ~assumptions steps

let no_conclusion_msg assumptions =
  if assumptions = [] then "proof does not derive the empty clause"
  else
    "proof does not derive a failed-assumption core clause that survives \
     to the end of the proof"

(* Forward verification of one shard: every step is replayed to keep the
   clause set exact, but only Add steps with index ≡ residue (mod jobs)
   are RUP-verified.  Delete steps are validated by every worker (the
   check is a hash lookup, and skipping one would desynchronize the
   replay).  Errors carry the 0-based step index so shard results merge
   deterministically; the conclusion check uses index [n]. *)
let verify_forward ~given ~assumptions ~residue ~jobs cnf steps =
  let t = create () in
  add_cnf t cnf;
  let n = Array.length steps in
  let err = ref None in
  (try
     for i = 0 to n - 1 do
       let r =
         match steps.(i) with
         | Proof.Delete lits -> Result.map (fun _ -> ()) (remove_ci t lits)
         | Proof.Add lits ->
             if i mod jobs <> residue || check_rup t lits then begin
               add_lits t ~input:false lits;
               Ok ()
             end
             else Error (not_rup_msg lits)
       in
       match r with
       | Ok () -> ()
       | Error m ->
           err := Some (i, m);
           raise Exit
     done
   with Exit -> ());
  match !err with
  | Some (i, m) -> Error (i, m)
  | None ->
      if given || conclusion_ok t ~assumptions steps then Ok ()
      else Error (n, no_conclusion_msg assumptions)

(* Backward checking: an untrusted forward replay locates the conclusion
   and records which clause id each step touched, then a reverse walk
   un-installs additions and revives deletions, RUP-verifying only the
   steps in the needed set (seeded from the conclusion's antecedents and
   grown through each verified step's own antecedents). *)
type action = A_none | A_empty | A_install of int | A_delete of int

let verify_backward ~given ~assumptions cnf steps =
  let t = create () in
  t.prune <- false (* dead clauses must stay revivable *);
  add_cnf t cnf;
  let input_refuted = refuted t in
  let n = Array.length steps in
  let acts = Array.make (max 1 n) A_none in
  let err = ref None in
  (try
     for i = 0 to n - 1 do
       match steps.(i) with
       | Proof.Add lits -> (
           match normalize_grown t lits with
           | None -> ()
           | Some [||] ->
               t.empty_count <- t.empty_count + 1;
               acts.(i) <- A_empty
           | Some codes -> acts.(i) <- A_install (install t ~input:false codes)
           )
       | Proof.Delete lits -> (
           match remove_ci t lits with
           | Ok ci -> if ci >= 0 then acts.(i) <- A_delete ci
           | Error m ->
               err := Some (i, m);
               raise Exit)
     done
   with Exit -> ());
  match !err with
  | Some (i, m) -> Error (i, m)
  | None ->
      if input_refuted then Ok () (* the inputs alone are contradictory *)
      else begin
        let marked = Bytes.make (max 1 t.n_clauses) '\000' in
        (* seed the needed set from the conclusion, evaluated against the
           final clause set *)
        let seed =
          if t.empty_count > 0 then Ok true
          (* rely on the last Add [] step; verified during the walk *)
          else if t.contradiction then begin
            mark_antecedents t marked ~from_clause:t.conflict_at
              ~from_var:(-1);
            Ok false
          end
          else if given then Ok false
          else if
            assumptions <> []
            &&
            let neg = neg_codes assumptions in
            Array.exists
              (fun step ->
                establishes neg step
                &&
                match step with
                | Proof.Add lits -> (
                    match normalize_grown t lits with
                    | None | Some [||] -> false
                    | Some codes -> (
                        match Hashtbl.find_opt t.index (key_of codes) with
                        | Some (ci :: _) ->
                            Bytes.set marked ci '\001';
                            true
                        | Some [] | None -> rup_codes t ~marker:marked codes))
                | Proof.Delete _ -> false)
              steps
          then Ok false
          else Error (n, no_conclusion_msg assumptions)
        in
        match seed with
        | Error (i, m) -> Error (i, m)
        | Ok rely0 ->
            (* reverse walk: restore the state just before step i, and
               verify step i there when it is in the needed set *)
            let rec walk i rely_empty =
              if i < 0 then Ok ()
              else
                match acts.(i) with
                | A_none -> walk (i - 1) rely_empty
                | A_delete ci ->
                    t.clauses.(ci).dead <- false;
                    t.live <- t.live + 1;
                    (if not (refuted t) then
                       match
                         recount t ci;
                         scan_clause t ci;
                         propagate t
                       with
                       | () -> ()
                       | exception Conflict -> t.contradiction <- true);
                    walk (i - 1) rely_empty
                | A_empty ->
                    t.empty_count <- t.empty_count - 1;
                    if t.empty_count = 0 then rebuild t;
                    if rely_empty then
                      if t.contradiction then begin
                        mark_antecedents t marked ~from_clause:t.conflict_at
                          ~from_var:(-1);
                        walk (i - 1) false
                      end
                      else if t.empty_count > 0 then walk (i - 1) true
                      else Error (i, not_rup_msg [])
                    else walk (i - 1) rely_empty
                | A_install ci ->
                    let needed = Bytes.get marked ci <> '\000' in
                    let codes = t.clauses.(ci).lits in
                    t.clauses.(ci).dead <- true;
                    t.live <- t.live - 1;
                    if
                      t.empty_count = 0
                      && (t.contradiction || clause_locked t ci)
                    then rebuild t;
                    if (not needed) || rup_codes t ~marker:marked codes then
                      walk (i - 1) rely_empty
                    else
                      Error
                        ( i,
                          not_rup_msg
                            (List.map Lit.of_code (Array.to_list codes)) )
            in
            walk (n - 1) rely0
      end

let check_unsat ?(mode = Forward) ?(jobs = 1) ?(assumptions = []) cnf steps =
  let n = Array.length steps in
  let finish = function
    | Ok () -> Ok ()
    | Error (i, m) ->
        Error (if i >= n then m else Printf.sprintf "step %d: %s" (i + 1) m)
  in
  (* every step is still checked; only the conclusion is given *)
  let given = contradictory assumptions in
  match mode with
  | Backward -> finish (verify_backward ~given ~assumptions cnf steps)
  | Forward ->
      let jobs = min (Par.clamp_jobs jobs) (max 1 n) in
      let shards =
        Par.run ~jobs (fun residue ->
            verify_forward ~given ~assumptions ~residue ~jobs cnf steps)
      in
      (* the earliest failing step wins, deterministically *)
      finish
        (Array.fold_left
           (fun acc r ->
             match (acc, r) with
             | Error (i, _), Error (j, _) -> if j < i then r else acc
             | (Ok () as ok), Ok () -> ok
             | Ok (), (Error _ as e) | (Error _ as e), Ok () -> e)
           (Ok ()) shards)
