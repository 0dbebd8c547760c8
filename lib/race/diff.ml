open O2_pta
open O2_shb

type race_key = {
  k_field : string;
  k_kind_a : string;
  k_kind_b : string;
  k_line_a : int;
  k_line_b : int;
}

type delta = {
  introduced : race_key list;
  fixed : race_key list;
  unchanged : race_key list;
  moved : (race_key * race_key) list;
}

let kind_of (n : Graph.node) =
  match n.Graph.n_kind with
  | Graph.Write _ -> "write"
  | Graph.Read _ -> "read"
  | _ -> "other"

let key_of a (r : Detect.race) =
  let field =
    match r.Detect.r_target with
    | Access.Tfield (oid, f) ->
        let o = Pag.obj (a.Solver.pag) oid in
        o.Pag.ob_class ^ "." ^ f
    | Access.Tstatic (c, f) -> c ^ "::" ^ f
  in
  let la = r.Detect.r_a.Graph.n_pos.O2_ir.Types.line in
  let lb = r.Detect.r_b.Graph.n_pos.O2_ir.Types.line in
  let ka = kind_of r.Detect.r_a and kb = kind_of r.Detect.r_b in
  (* order endpoints canonically so the key is symmetric *)
  if (la, ka) <= (lb, kb) then
    { k_field = field; k_kind_a = ka; k_kind_b = kb; k_line_a = la; k_line_b = lb }
  else
    { k_field = field; k_kind_a = kb; k_kind_b = ka; k_line_a = lb; k_line_b = la }

let keys a (report : Detect.report) =
  List.sort_uniq compare (List.map (key_of a) report.Detect.races)

let align old_keys new_keys =
  (* phase 1: exact alignment *)
  let unchanged = List.filter (fun k -> List.mem k old_keys) new_keys in
  let old_rest = List.filter (fun k -> not (List.mem k new_keys)) old_keys in
  let new_rest = List.filter (fun k -> not (List.mem k old_keys)) new_keys in
  (* phase 2: a race on the same field with the same access kinds whose
     lines shifted is edited-but-same code, not a new defect *)
  let shape k = (k.k_field, k.k_kind_a, k.k_kind_b) in
  let moved = ref [] and fixed = ref [] in
  let remaining_new = ref new_rest in
  List.iter
    (fun ok ->
      match List.find_opt (fun nk -> shape nk = shape ok) !remaining_new with
      | Some nk ->
          moved := (ok, nk) :: !moved;
          remaining_new := List.filter (fun k -> k <> nk) !remaining_new
      | None -> fixed := ok :: !fixed)
    old_rest;
  {
    introduced = !remaining_new;
    fixed = List.rev !fixed;
    unchanged;
    moved = List.rev !moved;
  }

let pp_key ppf k =
  Format.fprintf ppf "%s: %s@%d vs %s@%d" k.k_field k.k_kind_a k.k_line_a
    k.k_kind_b k.k_line_b

let pp ppf d =
  Format.fprintf ppf "@[<v>%d introduced, %d fixed, %d unchanged, %d moved@,"
    (List.length d.introduced) (List.length d.fixed)
    (List.length d.unchanged) (List.length d.moved);
  List.iter (fun k -> Format.fprintf ppf "+ %a@," pp_key k) d.introduced;
  List.iter (fun k -> Format.fprintf ppf "- %a@," pp_key k) d.fixed;
  List.iter
    (fun (o, n) -> Format.fprintf ppf "~ %a -> %a@," pp_key o pp_key n)
    d.moved;
  Format.fprintf ppf "@]"
