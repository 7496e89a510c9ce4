type 'v entry = { value : 'v; mutable stamp : int }

type ('k, 'v) t = {
  tbl : ('k, 'v entry) Hashtbl.t;
  cap : int;
  mutable clock : int;  (* strictly increasing => recency is a total order *)
  obs : Obs.t option;
  name : string;  (* counter prefix, e.g. "cache/circuit" *)
}

let create ?obs ?(name = "cache") ~capacity () =
  if capacity < 1 then invalid_arg "Cache.create: capacity < 1";
  { tbl = Hashtbl.create 16; cap = capacity; clock = 0; obs; name }

let count t suffix n =
  match t.obs with
  | None -> ()
  | Some obs -> Obs.add obs (t.name ^ "/" ^ suffix) n

let capacity t = t.cap

let length t = Hashtbl.length t.tbl

let mem t key = Hashtbl.mem t.tbl key

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | None ->
      count t "misses" 1;
      None
  | Some e ->
      e.stamp <- tick t;
      count t "hits" 1;
      Some e.value

let add t key value = Hashtbl.replace t.tbl key { value; stamp = tick t }

let remove t key =
  let e = Hashtbl.find_opt t.tbl key in
  Hashtbl.remove t.tbl key;
  Option.map (fun e -> e.value) e

(* stamps are unique, so the minimum — and with it the whole eviction
   order — is deterministic regardless of hash-table iteration order *)
let victim ?(keep = fun _ -> false) t =
  Hashtbl.fold
    (fun key e best ->
      if keep key then best
      else
        match best with
        | Some (_, s) when s <= e.stamp -> best
        | _ -> Some (key, e.stamp))
    t.tbl None

let trim ?keep t =
  let rec go acc =
    if Hashtbl.length t.tbl <= t.cap then List.rev acc
    else
      match victim ?keep t with
      | None -> List.rev acc
      | Some (key, _) ->
          let e = Hashtbl.find t.tbl key in
          Hashtbl.remove t.tbl key;
          go ((key, e.value) :: acc)
  in
  let evicted = go [] in
  count t "evictions" (List.length evicted);
  evicted

let items t =
  Hashtbl.fold (fun key e acc -> (key, e.value, e.stamp) :: acc) t.tbl []
  |> List.sort (fun (_, _, s1) (_, _, s2) -> compare s1 s2)
  |> List.map (fun (key, v, _) -> (key, v))
