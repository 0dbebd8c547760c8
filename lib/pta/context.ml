type origin = {
  og_site : int;
  og_wrapper : int;
  og_copy : int;
  og_class : string;
  og_parent : int list;
}

let main_origin =
  { og_site = -1; og_wrapper = -1; og_copy = 0; og_class = "<main>"; og_parent = [] }

let pp_origin ppf o =
  if o.og_site = -1 then Format.pp_print_string ppf "O<main>"
  else
    Format.fprintf ppf "O(%s@%d%s%s)" o.og_class o.og_site
      (if o.og_wrapper >= 0 then Printf.sprintf "/w%d" o.og_wrapper else "")
      (if o.og_copy > 0 then Printf.sprintf "'%d" o.og_copy else "")

type t =
  | Cempty
  | Ccall of int list
  | Cobj of int list
  | Corigin of int list

let equal (a : t) (b : t) = a = b

let pp ppf = function
  | Cempty -> Format.pp_print_string ppf "[]"
  | Ccall xs ->
      Format.fprintf ppf "cfa%a" Fmt.(brackets (list ~sep:comma int)) xs
  | Cobj xs ->
      Format.fprintf ppf "obj%a" Fmt.(brackets (list ~sep:comma int)) xs
  | Corigin xs ->
      Format.fprintf ppf "org%a" Fmt.(brackets (list ~sep:comma int)) xs

type policy = Insensitive | Kcfa of int | Kobj of int | Korigin of int

let policy_name = function
  | Insensitive -> "0-ctx"
  | Kcfa k -> Printf.sprintf "%d-CFA" k
  | Kobj k -> Printf.sprintf "%d-obj" k
  | Korigin 1 -> "O2"
  | Korigin k -> Printf.sprintf "%d-origin" k

(* A k-limited policy with k < 1 would silently truncate every context to
   [] and masquerade as 0-ctx; reject it loudly instead. *)
let validate_policy p =
  match p with
  | (Kcfa k | Kobj k | Korigin k) when k < 1 ->
      invalid_arg
        (Printf.sprintf "Context: non-positive k in policy %s" (policy_name p))
  | _ -> ()

let policy_of_string s =
  match String.lowercase_ascii s with
  | "0-ctx" | "0ctx" | "insensitive" -> Ok Insensitive
  | "o2" | "origin" | "1-origin" -> Ok (Korigin 1)
  | s -> (
      let bad = Error ("bad policy: " ^ s) in
      match String.split_on_char '-' s with
      | [ k; kind ] -> (
          match (int_of_string_opt k, kind) with
          | Some k, ("cfa" | "obj" | "origin") when k < 1 ->
              Error
                (Printf.sprintf
                   "bad policy: %s (k must be >= 1; use 0-ctx for the \
                    context-insensitive analysis)"
                   s)
          | Some k, "cfa" -> Ok (Kcfa k)
          | Some k, "obj" -> Ok (Kobj k)
          | Some k, "origin" -> Ok (Korigin k)
          | _ -> bad)
      | _ -> bad)

let entry policy =
  validate_policy policy;
  match policy with
  | Insensitive -> Cempty
  | Kcfa _ -> Ccall []
  | Kobj _ -> Cobj []
  | Korigin _ -> Corigin [ 0 ]

let truncate k xs =
  let rec go k = function
    | [] -> []
    | _ when k <= 0 -> []
    | x :: tl -> x :: go (k - 1) tl
  in
  go k xs

let push_call_static policy ~ctx ~site =
  match (policy, ctx) with
  | Insensitive, _ -> Cempty
  | Kcfa k, Ccall sites -> Ccall (truncate k (site :: sites))
  | Kcfa k, _ -> Ccall (truncate k [ site ])
  | (Kobj _ | Korigin _), _ -> ctx

let push_call policy ~ctx ~site ~recv_site ~recv_hctx =
  match policy with
  | Insensitive -> Cempty
  | Kcfa _ -> push_call_static policy ~ctx ~site
  | Kobj k ->
      let chain = match recv_hctx with Cobj xs -> xs | _ -> [] in
      Cobj (truncate k (recv_site :: chain))
  | Korigin _ -> ctx
