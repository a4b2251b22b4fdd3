"""Module docstring
over two lines."""

# a comment line
import os  # a trailing comment counts with its code


class Sample:
    """Class docstring."""

    value = """a string that is not a docstring
    counts on both of its lines"""

    def method(self):
        """Method docstring,
        over two lines.
        """
        # an indented comment
        return os.sep


def function(a,
             b):
    '''Function docstring.'''

    return (a +
            b)
