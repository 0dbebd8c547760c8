(** Fan-out of independent units over OCaml 5 domains.

    The one parallel layer: [o2 batch] analyzes files and [o2 fuzz] checks
    programs with it. Each unit must be independent of the others (no
    shared mutable state); the analysis pipeline itself is serial. *)

(** [workers ~jobs n] is the number of domains {!init} uses for [n]
    units: [jobs] clamped to [[1, n]] (1 when [n = 0]). The calling domain
    counts as one of them. *)
val workers : jobs:int -> int -> int

(** [init ~jobs n f] is [Array.init n f], with the calls spread over
    [workers ~jobs n] domains: each claims the next unclaimed index until
    none is left, and the result of [f i] lands at index [i] whatever the
    interleaving. An exception from [f] escapes. *)
val init : jobs:int -> int -> (int -> 'a) -> 'a array
