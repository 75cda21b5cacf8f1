//! Resource hierarchies, resource names, and foci.
//!
//! This crate implements the program-representation layer of the Paradyn
//! Performance Consultant as described in Karavanic & Miller (SC'99), §2:
//!
//! * A program is represented as a collection of discrete **program
//!   resources** (code modules and functions, processes, machine nodes,
//!   synchronization objects, ...).
//! * Resources are organized into trees called **resource hierarchies**
//!   (`Code`, `Machine`, `Process`, `SyncObject`). Moving down from the root
//!   of a hierarchy yields a finer-grained description of the program.
//! * A **resource name** is the concatenation of labels along the unique
//!   path from the hierarchy root to the resource, e.g.
//!   `/Code/testutil.C/verifyA`.
//! * A **focus** selects one resource from every hierarchy and constrains a
//!   performance measurement to the program parts below those selections,
//!   e.g. `</Code/testutil.C/verifyA,/Machine,/Process/Tester:2>`.
//! * **Refinement** moves a focus one edge down a single hierarchy; it is
//!   the "where" axis of the Performance Consultant's bottleneck search.
//!
//! The same types also support the paper's §3.2 resource-name **mapping**
//! between executions (see the `histpc-history` crate) and the execution
//! tagging used in the paper's Figure 3, where resources are labelled with
//! the set of executions they appear in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod error;
pub mod fnv;
pub mod focus;
pub mod hierarchy;
pub mod intern;
pub mod name;
pub mod space;

pub use diag::{Diagnostic, Severity, Span};
pub use error::ResourceError;
pub use fnv::{fnv64, Fnv64};
pub use focus::Focus;
pub use hierarchy::{ExecTagSet, NodeId, ResourceHierarchy};
pub use intern::{FocusId, Interner, NameId};
pub use name::ResourceName;
pub use space::ResourceSpace;

/// Conventional name of the code (modules/functions) hierarchy.
pub const CODE: &str = "Code";
/// Conventional name of the machine (nodes/CPUs) hierarchy.
pub const MACHINE: &str = "Machine";
/// Conventional name of the process hierarchy.
pub const PROCESS: &str = "Process";
/// Conventional name of the synchronization-object hierarchy.
pub const SYNC_OBJECT: &str = "SyncObject";
