(** Applicative command-line parsing shared by the Multiverse binaries.

    A ['a t] describes how to build a value of type ['a] from argv:
    combine converters, flags, options and positionals with {!const} and
    {!($)} (in the style of [Cmdliner.Term]), then hand the term to
    {!run} — or wrap several terms as subcommands with {!cmd} and
    {!run_group}.

    Conventions: single-character option names render as [-x], longer
    names as [--name]; [--name=value] and [--name value] are both
    accepted; [--help]/[-h] print generated usage and exit 0; a parse
    error (unknown option, unparseable or excess argument, missing
    required positional) prints a message plus usage to stderr and exits
    with code 2 — excess positionals are an error, never silently
    reinterpreted. *)

(** {1 Converters} *)

type 'a conv

val string : string conv
val int : int conv
val float : float conv

val enum : (string * 'a) list -> 'a conv
(** Accepts exactly the listed spellings; the error message enumerates
    them. *)

val topology : (int * int) conv
(** Machine geometry as [SOCKETSxCORES] (e.g. ["4x32"] for 4 sockets of
    32 cores): both counts must be positive and the machine must have at
    least two cores total — a one-core geometry leaves no ROS core once
    an HRT core is carved out, so it is rejected at parse time (usage
    error, exit 2). *)

val partitions : int list conv
(** An elastic partition spec as comma-separated positive core counts
    (e.g. ["2,1"]: HRT partition 1 gets 2 cores, partition 2 gets 1).
    Whether the sizes fit the machine is checked downstream by
    [Topology.create], which names the offending spec. *)

(** {1 Terms} *)

type 'a t

val const : 'a -> 'a t

val ( $ ) : ('a -> 'b) t -> 'a t -> 'b t
(** Applicative application: [const f $ a $ b]. *)

val flag : names:string list -> doc:string -> bool t
(** A boolean flag; [names] are given without dashes, the first one is
    canonical. *)

val opt : 'a conv -> default:'a -> names:string list -> docv:string -> doc:string -> 'a t
(** A valued option; the last occurrence wins. *)

val opt_opt : 'a conv -> names:string list -> docv:string -> doc:string -> 'a option t
(** A valued option with no default: [None] when absent. *)

val opt_all : 'a conv -> names:string list -> docv:string -> doc:string -> 'a list t
(** A repeatable valued option: every occurrence, in argv order. *)

val pos : 'a conv -> index:int -> docv:string -> doc:string -> 'a option t
(** The [index]-th positional argument (0-based), [None] when absent. *)

val pos_req : 'a conv -> index:int -> docv:string -> doc:string -> 'a t
(** A required positional: parse error when absent. *)

val pos_all : 'a conv -> docv:string -> doc:string -> 'a list t
(** Every positional argument, in argv order (none is [[]]): a term with
    this accepts any number of positionals. *)

(** {1 Running} *)

val run : name:string -> doc:string -> 'a t -> string list -> 'a
(** [run ~name ~doc term args] parses [args] (argv without the program
    name) against [term].  Exits the process on [--help] (code 0) and on
    parse errors (code 2). *)

(** {1 Subcommands} *)

type cmd

val cmd : string -> doc:string -> 'a t -> ('a -> int) -> cmd
(** [cmd name ~doc term handler]: when dispatched, parses the remaining
    arguments with [term] and returns [handler]'s exit code. *)

val run_group :
  name:string -> doc:string -> ?default:string -> cmd list -> string list -> int
(** Dispatch on the first argument as a subcommand name.  When it is not
    a known subcommand, fall back to the [default] subcommand with the
    whole argument list (when given) or fail with a usage error.  Returns
    the handler's exit code; exits directly for [--help] and usage
    errors, as {!run} does. *)
