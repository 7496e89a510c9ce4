module J = Obs.Json

type diagnose = {
  id : J.t option;
  circuit : string;
  faulty : string option;
  errors : int;
  seed : int;
  k : int option;
  tests : int;
  max_solutions : int;
  budget : Sat.Budget.t option;
  certify : bool;
  stats : bool;
}

type request =
  | Load of { id : J.t option; circuit : string }
  | Diagnose of diagnose
  | Batch of { id : J.t option; requests : diagnose list }
  | Stats of { id : J.t option }
  | Metrics of { id : J.t option; times : bool }
  | Health of { id : J.t option }
  | Shutdown of { id : J.t option }

exception Framing of string

(* a diagnosis request is a few hundred bytes of JSON; anything larger
   is a framing error, not a workload *)
let max_frame = 1 lsl 20

let read_frame ic =
  match input_line ic with
  | exception End_of_file -> None
  | line -> (
      let line = String.trim line in
      if line = "" then raise (Framing "empty frame length line")
      else
        match int_of_string_opt line with
        | None -> raise (Framing (Printf.sprintf "bad frame length %S" line))
        | Some n when n < 0 || n > max_frame ->
            raise (Framing (Printf.sprintf "frame length %d out of range" n))
        | Some n -> (
            match really_input_string ic n with
            | exception End_of_file -> raise (Framing "truncated frame")
            | payload ->
                (match input_char ic with
                | '\n' -> ()
                | _ -> raise (Framing "missing frame terminator")
                | exception End_of_file -> ());
                Some payload))

let write_frame oc s =
  output_string oc (string_of_int (String.length s));
  output_char oc '\n';
  output_string oc s;
  output_char oc '\n';
  flush oc

(* ---------- request decoding ---------- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let string_field j name =
  match J.member name j with
  | Some (J.String s) -> Some s
  | Some _ -> bad "field %S must be a string" name
  | None -> None

let int_field j name =
  match J.member name j with
  | Some (J.Int n) -> Some n
  | Some _ -> bad "field %S must be an integer" name
  | None -> None

let float_field j name =
  match J.member name j with
  | Some (J.Float f) -> Some f
  | Some (J.Int n) -> Some (float_of_int n)
  | Some _ -> bad "field %S must be a number" name
  | None -> None

let bool_field ~default j name =
  match J.member name j with
  | Some (J.Bool b) -> b
  | Some _ -> bad "field %S must be a boolean" name
  | None -> default

let required_string j name =
  match string_field j name with
  | Some s -> s
  | None -> bad "request needs a %S field" name

let diagnose_of_json id j =
  let errors = Option.value (int_field j "errors") ~default:1 in
  let budget_seconds = float_field j "budget_seconds" in
  let budget_conflicts = int_field j "budget_conflicts" in
  let budget =
    match (budget_seconds, budget_conflicts) with
    | None, None -> None
    | seconds, conflicts -> Some (Sat.Budget.create ?conflicts ?seconds ())
  in
  {
    id;
    circuit = required_string j "circuit";
    faulty = string_field j "faulty";
    errors;
    seed = Option.value (int_field j "seed") ~default:1;
    k =
      (match int_field j "k" with
      | Some k when k < 1 -> bad {|field "k" must be at least 1|}
      | k -> k);
    tests = Option.value (int_field j "tests") ~default:16;
    max_solutions =
      (match int_field j "max_solutions" with
      | Some n when n < 0 -> bad {|field "max_solutions" must not be negative|}
      | n -> Option.value n ~default:1000);
    budget;
    certify = bool_field ~default:false j "certify";
    stats = bool_field ~default:false j "stats";
  }

let request_of_json j =
  let id = J.member "id" j in
  match J.member "op" j with
  | Some (J.String "load") -> Load { id; circuit = required_string j "circuit" }
  | Some (J.String "diagnose") -> Diagnose (diagnose_of_json id j)
  | Some (J.String "batch") -> (
      match J.member "requests" j with
      | Some (J.Arr items) ->
          let decode item =
            (match J.member "op" item with
            | None | Some (J.String "diagnose") -> ()
            | Some _ -> bad "a batch may contain only diagnose requests");
            diagnose_of_json (J.member "id" item) item
          in
          Batch { id; requests = List.map decode items }
      | Some _ -> bad {|field "requests" must be an array|}
      | None -> bad {|batch request needs a "requests" field|})
  | Some (J.String "stats") -> Stats { id }
  | Some (J.String "metrics") ->
      Metrics { id; times = bool_field ~default:true j "times" }
  | Some (J.String "health") -> Health { id }
  | Some (J.String "shutdown") -> Shutdown { id }
  | Some (J.String op) -> bad "unknown op %S" op
  | Some _ -> bad {|field "op" must be a string|}
  | None -> bad {|request needs an "op" field|}

let parse payload =
  match J.parse payload with
  | Error msg -> Error ("invalid JSON: " ^ msg)
  | Ok j -> (
      match request_of_json j with
      | req -> Ok req
      | exception Bad msg -> Error msg
      | exception Invalid_argument msg -> Error msg)

(* ---------- responses ---------- *)

let with_id id fields =
  match id with None -> fields | Some id -> ("id", id) :: fields

let ok ?id fields = J.Obj (with_id id (("ok", J.Bool true) :: fields))

let error ?id msg =
  J.Obj (with_id id [ ("ok", J.Bool false); ("error", J.String msg) ])
