type reason = [ `Wall | `Steps ]

exception Exhausted of reason

type t = {
  deadline : float option;  (* absolute Unix.gettimeofday when work must stop *)
  max_steps : int option;
}

let make ?wall ?max_steps () =
  let deadline =
    match wall with
    | None -> None
    | Some s when s < 0.0 -> invalid_arg "Budget.make: negative wall budget"
    | Some s -> Some (Unix.gettimeofday () +. s)
  in
  (match max_steps with
  | Some n when n < 1 -> invalid_arg "Budget.make: non-positive step budget"
  | _ -> ());
  { deadline; max_steps }

let is_unlimited b = b.deadline = None && b.max_steps = None

let check b ~steps =
  (match b.max_steps with
  | Some limit when steps > limit -> raise (Exhausted `Steps)
  | _ -> ());
  match b.deadline with
  | Some d when Unix.gettimeofday () > d -> raise (Exhausted `Wall)
  | _ -> ()

let reason_to_string = function
  | `Wall -> "wall-clock deadline exceeded"
  | `Steps -> "PTA worklist-step ceiling exceeded"
