//! The named-slot registry: one declaration per fieldless enum whose slots
//! key a table, a JSON member, or a flag value.

/// Declare a named-slot enum. Each variant reads `Variant = "name"`;
/// attributes on the enum and on its variants (docs, derives, `repr`,
/// `#[default]`) pass through unchanged, and the discriminants stay
/// implicit, so slot `i` is the `i`-th variant. The macro adds:
///
/// * `COUNT` — the number of slots;
/// * `ALL` — every slot in declaration order, so `ALL[i] as usize == i` and
///   a per-slot table indexes by `v as usize`;
/// * `name(self)` — the slot's stable name (JSON key, label, flag value);
/// * `from_name(&str)` — its inverse, `None` for a name no slot carries.
///
/// ```
/// simnet::registry! {
///     /// Which way a frame travels.
///     #[derive(Copy, Clone, Debug, PartialEq, Eq)]
///     pub enum Dir {
///         /// Leaving the node.
///         Tx = "tx",
///         /// Arriving at it.
///         Rx = "rx",
///     }
/// }
/// assert_eq!(Dir::ALL, [Dir::Tx, Dir::Rx]);
/// assert_eq!(Dir::from_name(Dir::Rx.name()), Some(Dir::Rx));
/// assert_eq!(Dir::from_name("up"), None);
/// ```
#[macro_export]
macro_rules! registry {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $label:literal
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant,
            )+
        }

        impl $name {
            /// Number of slots.
            pub const COUNT: usize = [$($name::$variant),+].len();

            /// Every slot, in slot (declaration) order.
            pub const ALL: [$name; $name::COUNT] = [$($name::$variant),+];

            /// Stable name of this slot.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }

            /// Inverse of [`name`](Self::name): the slot called `s`.
            pub fn from_name(s: &str) -> Option<$name> {
                match s {
                    $($label => Some($name::$variant),)+
                    _ => None,
                }
            }
        }
    };
}
