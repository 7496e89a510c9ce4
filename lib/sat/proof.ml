type step = Add of Lit.t list | Delete of Lit.t list

type t = { mutable a : step array; mutable n : int }

let in_memory () = { a = Array.make 16 (Add []); n = 0 }

(* canonical form: literals sorted by code, duplicates kept out by the
   solver (learnt clauses never contain duplicates) but dropped here
   anyway so Delete steps always match their Add *)
let canon lits = List.sort_uniq Lit.compare lits

let step_to_string s =
  let body lits =
    String.concat "" (List.map (fun l -> Printf.sprintf "%d " (Lit.to_dimacs l)) lits)
  in
  match s with
  | Add lits -> body lits ^ "0\n"
  | Delete lits -> "d " ^ body lits ^ "0\n"

let record t s =
  if t.n = Array.length t.a then begin
    let a' = Array.make (2 * t.n) (Add []) in
    Array.blit t.a 0 a' 0 t.n;
    t.a <- a'
  end;
  t.a.(t.n) <- s;
  t.n <- t.n + 1

let add t lits = record t (Add (canon lits))
let delete t lits = record t (Delete (canon lits))

(* canonical list straight from raw literal codes: insertion-sort a
   private copy (clauses are short, and Lit's order is the code order),
   then build the deduplicated list back-to-front *)
let canon_codes codes =
  let a = Array.copy codes in
  let n = Array.length a in
  for i = 1 to n - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done;
  let lits = ref [] in
  for i = n - 1 downto 0 do
    match !lits with
    | l :: _ when Lit.code l = a.(i) -> ()
    | _ -> lits := Lit.of_code a.(i) :: !lits
  done;
  !lits

let add_codes t codes = record t (Add (canon_codes codes))
let delete_codes t codes = record t (Delete (canon_codes codes))

let num_steps t = t.n

let steps_from t i = Array.sub t.a i (t.n - i)

let steps t = steps_from t 0

let to_string t =
  let buf = Buffer.create (64 * t.n) in
  for i = 0 to t.n - 1 do
    Buffer.add_string buf (step_to_string t.a.(i))
  done;
  Buffer.contents buf
